"""Declarative fault plans: what breaks, where, and when.

A :class:`FaultPlan` is a plain dataclass tree with a stable JSON wire
format (``repro.faults/1``) so plans can be checked into a repo, attached
to a CI run, or generated from the CLI (``repro faults generate``).  Times
are *simulated* seconds; stages are addressed by their ordinal position in
the run (0, 1, ...) because stage ids are an implementation detail of the
DAG builder.

Plans have two scopes.  *Engine-scope* faults (task crashes, node loss,
disk degradation, stragglers) hit the inner single-job simulation and are
interpreted by :mod:`repro.faults.injector`.  *Cluster-scope* faults (the
optional ``cluster`` section, wire format ``repro.faults/2``) hit the
multi-tenant service layer above it -- node churn, executor-slot flaps,
per-tenant poison jobs, demand surges -- and are interpreted by
:class:`repro.cluster.scheduler.ClusterScheduler` together with the
overload-protection policy in :class:`ProtectionConfig` (see FAULTS.md,
"Cluster failure model").  A plan without a ``cluster`` section still
serialises as ``repro.faults/1``, byte for byte, so existing plans and
goldens are untouched.

The plan only *describes* faults.  Interpreting it -- including the seeded
pseudo-random crash sampling -- is the injector's / scheduler's job.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional

#: Wire-format marker checked on load; bump on incompatible change.
PLAN_SCHEMA = "repro.faults/1"
#: Wire format for plans that carry a cluster-scope ``cluster`` section.
PLAN_SCHEMA_V2 = "repro.faults/2"
SUPPORTED_SCHEMAS = (PLAN_SCHEMA, PLAN_SCHEMA_V2)


class FaultPlanError(ValueError):
    """A fault plan failed validation or could not be parsed."""


@contextmanager
def _malformed(what: str):
    """Report a field of the wrong type or value, caught by a conversion or
    by ``validate()`` comparing it, as a :class:`FaultPlanError`."""
    try:
        yield
    except FaultPlanError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise FaultPlanError(f"malformed {what}: {exc}") from None


def exponential_backoff(base: float, attempt: int, cap: float) -> float:
    """``min(base * 2**(attempt-1), cap)``: the wait before retry ``attempt``.

    ``attempt`` is 1-based.  The one backoff formula of every retry loop:
    engine task retries, cluster job requeues (before their jitter) and
    the harness re-running a failed child.
    """
    return min(base * (2.0 ** (attempt - 1)), cap)


@dataclass
class TaskCrash:
    """Crash one specific task attempt partway through its run.

    ``at_fraction`` is the fraction of the task's work chunks completed
    before the crash fires (0.0 = immediately, 1.0 = after the last chunk
    but before the completion message).
    """

    stage_ordinal: int
    partition: int
    attempt: int = 0
    at_fraction: float = 0.5

    def validate(self) -> None:
        if not self.stage_ordinal >= 0:
            raise FaultPlanError(f"stage_ordinal must be >= 0, got {self.stage_ordinal}")
        if not self.partition >= 0:
            raise FaultPlanError(f"partition must be >= 0, got {self.partition}")
        if not self.attempt >= 0:
            raise FaultPlanError(f"attempt must be >= 0, got {self.attempt}")
        if not 0.0 <= self.at_fraction <= 1.0:
            raise FaultPlanError(
                f"at_fraction must be in [0, 1], got {self.at_fraction}"
            )


@dataclass
class TaskCrashRate:
    """Crash a seeded pseudo-random sample of task attempts.

    Each attempt crashes with ``probability``, decided by hashing
    ``(plan seed, stage ordinal, partition, attempt)`` -- not by drawing
    from a shared RNG -- so one task's fate never depends on scheduling
    order.  ``max_crashes`` caps the total so a high rate cannot push every
    partition past ``spark.task.maxFailures``.
    """

    probability: float
    max_crashes: int = 10

    def validate(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if not self.max_crashes >= 0:
            raise FaultPlanError(f"max_crashes must be >= 0, got {self.max_crashes}")


@dataclass
class ExecutorLoss:
    """Kill one executor process at an absolute simulated time.

    Its running tasks die, its shuffle outputs are discarded (they lived on
    its node's local disk), and it never comes back.  The node's DFS blocks
    survive -- this models a JVM crash, not a machine failure.
    """

    executor_id: int
    at: float

    def validate(self) -> None:
        if not self.executor_id >= 0:
            raise FaultPlanError(f"executor_id must be >= 0, got {self.executor_id}")
        if not self.at >= 0:
            raise FaultPlanError(f"at must be >= 0, got {self.at}")


@dataclass
class NodeLoss:
    """Lose a whole machine: its executor, its DFS replicas, its disks."""

    node_id: int
    at: float

    def validate(self) -> None:
        if not self.node_id >= 0:
            raise FaultPlanError(f"node_id must be >= 0, got {self.node_id}")
        if not self.at >= 0:
            raise FaultPlanError(f"at must be >= 0, got {self.at}")


@dataclass
class DiskDegrade:
    """Scale one node's disk rate curve by ``factor`` for ``duration``.

    Models a flaky device or a noisy neighbour saturating the spindle.
    Episodes compose multiplicatively when they overlap.
    """

    node_id: int
    at: float
    duration: float
    factor: float = 0.25

    def validate(self) -> None:
        if not self.node_id >= 0:
            raise FaultPlanError(f"node_id must be >= 0, got {self.node_id}")
        if not self.at >= 0:
            raise FaultPlanError(f"at must be >= 0, got {self.at}")
        if not self.duration > 0:
            raise FaultPlanError(f"duration must be > 0, got {self.duration}")
        if not self.factor > 0:
            raise FaultPlanError(f"factor must be > 0, got {self.factor}")


@dataclass
class Straggler:
    """Slow a whole node down (CPU and disk) for a while.

    The classic speculative-execution target: tasks on the node keep
    running, just several times slower than their twins elsewhere.
    """

    node_id: int
    at: float
    duration: float
    cpu_factor: float = 0.3
    disk_factor: float = 0.3

    def validate(self) -> None:
        if not self.node_id >= 0:
            raise FaultPlanError(f"node_id must be >= 0, got {self.node_id}")
        if not self.at >= 0:
            raise FaultPlanError(f"at must be >= 0, got {self.at}")
        if not self.duration > 0:
            raise FaultPlanError(f"duration must be > 0, got {self.duration}")
        if not (self.cpu_factor > 0 and self.disk_factor > 0):
            raise FaultPlanError(
                f"straggler factors must be > 0, got cpu={self.cpu_factor} "
                f"disk={self.disk_factor}"
            )


@dataclass
class SpeculationConfig:
    """Speculative-execution settings the plan wants for this run.

    Applied as ``spark.speculation*`` overrides when the injector wires up,
    so a plan is self-contained: loading it reproduces the whole scenario.
    """

    enabled: bool = False
    multiplier: float = 2.0
    quantile: float = 0.75

    def validate(self) -> None:
        if not self.multiplier > 1.0:
            raise FaultPlanError(
                f"speculation multiplier must be > 1, got {self.multiplier}"
            )
        if not 0.0 < self.quantile <= 1.0:
            raise FaultPlanError(
                f"speculation quantile must be in (0, 1], got {self.quantile}"
            )


# -- cluster scope (repro.faults/2) --------------------------------------------------


@dataclass
class NodeChurn:
    """One service-layer node goes down at ``down_at`` and (optionally) back up.

    Jobs holding slots on the node are killed and requeue with retry/backoff
    under :class:`ProtectionConfig`; ``duration=None`` means the node never
    returns.  Overlapping episodes on the same node compose (the node is up
    only when no episode holds it down).
    """

    node_id: int
    down_at: float
    duration: Optional[float] = None

    def validate(self) -> None:
        if not self.node_id >= 0:
            raise FaultPlanError(f"node_id must be >= 0, got {self.node_id}")
        if not self.down_at >= 0:
            raise FaultPlanError(f"down_at must be >= 0, got {self.down_at}")
        if self.duration is not None and not (
                math.isfinite(self.duration) and self.duration > 0):
            raise FaultPlanError(
                f"duration must be > 0 and finite (or null), got {self.duration}"
            )


@dataclass
class SlotFlap:
    """One executor slot drops out of the grantable pool for a window.

    Unlike :class:`NodeChurn` this *drains* instead of crashing: a job
    already running on the slot finishes normally, but the slot is not
    granted to new work while flapped -- the graceful-decommission /
    flaky-agent failure mode.
    """

    node_id: int
    at: float
    duration: float

    def validate(self) -> None:
        if not self.node_id >= 0:
            raise FaultPlanError(f"node_id must be >= 0, got {self.node_id}")
        if not self.at >= 0:
            raise FaultPlanError(f"at must be >= 0, got {self.at}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise FaultPlanError(
                f"duration must be > 0 and finite, got {self.duration}"
            )


@dataclass
class TenantPoison:
    """Seeded per-tenant poison jobs: attempts fail partway through.

    Each attempt of a matching tenant's job fails with ``probability``
    after ``at_fraction`` of its service time, decided by a dedicated
    chaos substream keyed on ``(job_id, attempt)`` so one job's fate never
    depends on scheduling order.  ``tenant="*"`` matches every tenant;
    ``max_poisoned`` caps total poisoned attempts.  Failures count toward
    the tenant's circuit breaker.
    """

    tenant: str
    probability: float
    max_poisoned: int = 10
    at_fraction: float = 0.5

    def validate(self) -> None:
        if not self.tenant:
            raise FaultPlanError("poison tenant must be non-empty ('*' = all)")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if not self.max_poisoned >= 0:
            raise FaultPlanError(
                f"max_poisoned must be >= 0, got {self.max_poisoned}"
            )
        if not 0.0 < self.at_fraction <= 1.0:
            raise FaultPlanError(
                f"at_fraction must be in (0, 1], got {self.at_fraction}"
            )


@dataclass
class DemandSurge:
    """Arrival-rate multiplier over a time window.

    ``factor > 1`` superposes an extra Poisson process at
    ``(factor - 1) x base rate`` for each matching Poisson tenant (drawn
    from dedicated chaos substreams, so the base arrival draws are
    untouched); ``factor < 1`` thins in-window arrivals, keeping each with
    probability ``factor``.  ``tenant=None`` hits every tenant.
    """

    at: float
    duration: float
    factor: float
    tenant: Optional[str] = None

    def validate(self) -> None:
        if not self.at >= 0:
            raise FaultPlanError(f"at must be >= 0, got {self.at}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise FaultPlanError(
                f"duration must be > 0 and finite, got {self.duration}"
            )
        if not (math.isfinite(self.factor) and self.factor > 0):
            raise FaultPlanError(
                f"factor must be > 0 and finite, got {self.factor}"
            )


@dataclass
class ProtectionConfig:
    """Resilience policy the service runs under (chaos or not).

    Lives in the plan for the same reason :class:`SpeculationConfig` does:
    a plan is self-contained -- loading it reproduces the whole scenario,
    protection knobs included.  ``None`` disables the respective guard.
    """

    #: Retry budget per job; a killed/poisoned attempt past this aborts.
    max_retries: int = 3
    #: Exponential backoff: delay = min(cap, base * 2^(attempt-1)) * (1 + jitter*u).
    backoff_base: float = 2.0
    backoff_cap: float = 60.0
    backoff_jitter: float = 0.5
    #: Absolute per-job sojourn bound (arrival -> completion); blown = abort.
    deadline: Optional[float] = None
    #: Latency SLO for *completed* jobs; blown completions count as violations.
    slo_latency: Optional[float] = None
    #: Admission: shed arrivals/requeues once this many jobs queue.
    max_queue: Optional[int] = None
    #: Admission: shed when estimated wait (queued work / live slots) exceeds this.
    max_wait: Optional[float] = None
    #: Circuit breaker: open after K consecutive tenant-attributable failures.
    breaker_failures: Optional[int] = None
    breaker_cooldown: float = 60.0
    breaker_jitter: float = 0.25
    #: Graceful degradation: shrink slot grants once this many jobs queue.
    degrade_queue: Optional[int] = None
    degrade_factor: float = 0.5

    def validate(self) -> None:
        if not self.max_retries >= 0:
            raise FaultPlanError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not (self.backoff_base > 0 and self.backoff_cap > 0):
            raise FaultPlanError(
                f"backoff base/cap must be > 0, got {self.backoff_base}"
                f"/{self.backoff_cap}"
            )
        if not self.backoff_jitter >= 0:
            raise FaultPlanError(
                f"backoff_jitter must be >= 0, got {self.backoff_jitter}"
            )
        for name in ("deadline", "slo_latency", "max_wait"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise FaultPlanError(f"{name} must be > 0, got {value}")
        if self.max_queue is not None and not self.max_queue >= 0:
            raise FaultPlanError(
                f"max_queue must be >= 0, got {self.max_queue}"
            )
        if self.breaker_failures is not None and not self.breaker_failures >= 1:
            raise FaultPlanError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if not self.breaker_cooldown > 0:
            raise FaultPlanError(
                f"breaker_cooldown must be > 0, got {self.breaker_cooldown}"
            )
        if not self.breaker_jitter >= 0:
            raise FaultPlanError(
                f"breaker_jitter must be >= 0, got {self.breaker_jitter}"
            )
        if self.degrade_queue is not None and not self.degrade_queue >= 1:
            raise FaultPlanError(
                f"degrade_queue must be >= 1, got {self.degrade_queue}"
            )
        if not 0.0 < self.degrade_factor < 1.0:
            raise FaultPlanError(
                f"degrade_factor must be in (0, 1), got {self.degrade_factor}"
            )


@dataclass
class ClusterFaults:
    """The cluster-scope section of a ``repro.faults/2`` plan."""

    node_churn: List[NodeChurn] = field(default_factory=list)
    slot_flaps: List[SlotFlap] = field(default_factory=list)
    poison: List[TenantPoison] = field(default_factory=list)
    surges: List[DemandSurge] = field(default_factory=list)
    protection: ProtectionConfig = field(default_factory=ProtectionConfig)

    def validate(self) -> None:
        for group in (self.node_churn, self.slot_flaps, self.poison,
                      self.surges):
            for item in group:
                item.validate()
        self.protection.validate()

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {}
        for key in ("node_churn", "slot_flaps", "poison", "surges"):
            items = getattr(self, key)
            if items:
                payload[key] = [asdict(item) for item in items]
        payload["protection"] = asdict(self.protection)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ClusterFaults":
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"cluster section must be an object, got {type(payload).__name__}"
            )
        known = {"node_churn", "slot_flaps", "poison", "surges", "protection"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise FaultPlanError(
                f"unknown cluster-fault fields: {', '.join(unknown)}"
            )

        def build(ctor, items):
            try:
                return [ctor(**item) for item in items]
            except TypeError as exc:
                raise FaultPlanError(f"bad {ctor.__name__} entry: {exc}") from None

        with _malformed("cluster section"):
            section = cls(
                node_churn=build(NodeChurn, payload.get("node_churn", [])),
                slot_flaps=build(SlotFlap, payload.get("slot_flaps", [])),
                poison=build(TenantPoison, payload.get("poison", [])),
                surges=build(DemandSurge, payload.get("surges", [])),
                protection=(
                    ProtectionConfig(**payload["protection"])
                    if "protection" in payload else ProtectionConfig()
                ),
            )
            section.validate()
        return section


@dataclass
class FaultPlan:
    """Everything that will go wrong in one run, plus the seed deciding it."""

    seed: int = 0
    task_crashes: List[TaskCrash] = field(default_factory=list)
    crash_rate: Optional[TaskCrashRate] = None
    executor_losses: List[ExecutorLoss] = field(default_factory=list)
    node_losses: List[NodeLoss] = field(default_factory=list)
    disk_degradations: List[DiskDegrade] = field(default_factory=list)
    stragglers: List[Straggler] = field(default_factory=list)
    speculation: Optional[SpeculationConfig] = None
    #: Cluster-scope section (repro.faults/2); ignored by the inner engine.
    cluster: Optional[ClusterFaults] = None

    def validate(self) -> None:
        for fault in self.all_faults():
            fault.validate()
        if self.crash_rate is not None:
            self.crash_rate.validate()
        if self.speculation is not None:
            self.speculation.validate()
        if self.cluster is not None:
            self.cluster.validate()
        seen_crashes = set()
        for crash in self.task_crashes:
            key = (crash.stage_ordinal, crash.partition, crash.attempt)
            if key in seen_crashes:
                raise FaultPlanError(
                    f"duplicate task crash for stage {key[0]} partition "
                    f"{key[1]} attempt {key[2]}"
                )
            seen_crashes.add(key)

    def all_faults(self) -> List[Any]:
        return (
            list(self.task_crashes)
            + list(self.executor_losses)
            + list(self.node_losses)
            + list(self.disk_degradations)
            + list(self.stragglers)
        )

    @property
    def is_empty(self) -> bool:
        return (
            not self.all_faults()
            and self.crash_rate is None
            and self.speculation is None
            and self.cluster is None
        )

    # -- scope split --------------------------------------------------------------

    def engine_plan(self) -> "FaultPlan":
        """This plan minus the cluster section: what the inner engine sees."""
        if self.cluster is None:
            return self
        return replace(self, cluster=None)

    def engine_dict(self) -> Optional[Dict[str, Any]]:
        """Wire dict of :meth:`engine_plan`, or ``None`` when nothing remains.

        The service harness passes this (not the full plan) to every inner
        run, so a purely cluster-scope chaos plan leaves the inner engine --
        and its golden event logs -- byte-identical to a fault-free run.
        """
        engine = self.engine_plan()
        if engine.is_empty:
            return None
        return engine.to_dict()

    # -- JSON wire format ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        schema = PLAN_SCHEMA_V2 if self.cluster is not None else PLAN_SCHEMA
        payload: Dict[str, Any] = {"schema": schema, "seed": self.seed}
        for key in ("task_crashes", "executor_losses", "node_losses",
                    "disk_degradations", "stragglers"):
            items = getattr(self, key)
            if items:
                payload[key] = [asdict(item) for item in items]
        if self.crash_rate is not None:
            payload["crash_rate"] = asdict(self.crash_rate)
        if self.speculation is not None:
            payload["speculation"] = asdict(self.speculation)
        if self.cluster is not None:
            payload["cluster"] = self.cluster.to_dict()
        return payload

    def to_json(self, indent: int = 2) -> str:
        try:
            return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                              allow_nan=False)
        except ValueError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultPlanError(f"fault plan must be an object, got {type(payload).__name__}")
        schema = payload.get("schema")
        if schema not in SUPPORTED_SCHEMAS:
            raise FaultPlanError(
                f"unsupported fault-plan schema {schema!r} "
                f"(expected one of {SUPPORTED_SCHEMAS})"
            )
        known = {
            "schema", "seed", "task_crashes", "crash_rate", "executor_losses",
            "node_losses", "disk_degradations", "stragglers", "speculation",
        }
        if schema == PLAN_SCHEMA_V2:
            known.add("cluster")
        elif "cluster" in payload:
            raise FaultPlanError(
                f"cluster-scope faults require schema {PLAN_SCHEMA_V2!r}"
            )
        unknown = sorted(set(payload) - known)
        if unknown:
            raise FaultPlanError(f"unknown fault-plan fields: {', '.join(unknown)}")

        def build(ctor, items):
            try:
                return [ctor(**item) for item in items]
            except TypeError as exc:
                raise FaultPlanError(f"bad {ctor.__name__} entry: {exc}") from None

        with _malformed("fault plan"):
            plan = cls(
                seed=int(payload.get("seed", 0)),
                task_crashes=build(TaskCrash, payload.get("task_crashes", [])),
                crash_rate=(
                    TaskCrashRate(**payload["crash_rate"])
                    if "crash_rate" in payload else None
                ),
                executor_losses=build(ExecutorLoss, payload.get("executor_losses", [])),
                node_losses=build(NodeLoss, payload.get("node_losses", [])),
                disk_degradations=build(DiskDegrade, payload.get("disk_degradations", [])),
                stragglers=build(Straggler, payload.get("stragglers", [])),
                speculation=(
                    SpeculationConfig(**payload["speculation"])
                    if "speculation" in payload else None
                ),
                cluster=(
                    ClusterFaults.from_dict(payload["cluster"])
                    if "cluster" in payload else None
                ),
            )
            plan.validate()
        return plan

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        from repro.atomicio import loads_finite

        try:
            payload = loads_finite(text)
        except ValueError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            raise FaultPlanError(f"no such file: {path}") from None
        except UnicodeDecodeError as exc:
            raise FaultPlanError(f"{path} is not UTF-8 text: {exc}") from None
        return cls.from_json(text)

    def save(self, path: str) -> None:
        from repro.atomicio import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")


# -- canned engine-scope plans (``repro run --faults``) ------------------------------


def node_loss_plan(node_id: int = 1, at: float = 30.0, seed: int = 0) -> FaultPlan:
    """Lose one machine mid-run: the canonical recovery scenario."""
    return FaultPlan(seed=seed, node_losses=[NodeLoss(node_id=node_id, at=at)])


def executor_loss_plan(executor_id: int = 1, at: float = 30.0,
                       seed: int = 0) -> FaultPlan:
    """Kill one executor JVM; its node (and DFS replicas) survive."""
    return FaultPlan(
        seed=seed, executor_losses=[ExecutorLoss(executor_id=executor_id, at=at)]
    )


def task_crash_plan(probability: float = 0.05, max_crashes: int = 10,
                    seed: int = 0) -> FaultPlan:
    """Random task crashes at a given rate, retried transparently."""
    return FaultPlan(
        seed=seed,
        crash_rate=TaskCrashRate(probability=probability, max_crashes=max_crashes),
    )


def disk_degrade_plan(node_id: int = 1, at: float = 10.0, duration: float = 60.0,
                      factor: float = 0.25, seed: int = 0) -> FaultPlan:
    """One node's disk runs at ``factor`` of its rate curve for a while."""
    return FaultPlan(
        seed=seed,
        disk_degradations=[
            DiskDegrade(node_id=node_id, at=at, duration=duration, factor=factor)
        ],
    )


def straggler_plan(node_id: int = 1, at: float = 10.0, duration: float = 120.0,
                   factor: float = 0.3, seed: int = 0,
                   speculation: bool = True) -> FaultPlan:
    """A slow node plus (by default) speculation to route around it."""
    return FaultPlan(
        seed=seed,
        stragglers=[
            Straggler(node_id=node_id, at=at, duration=duration,
                      cpu_factor=factor, disk_factor=factor)
        ],
        speculation=SpeculationConfig(enabled=speculation) if speculation else None,
    )


# -- canned cluster-scope plans (``repro serve --faults``) ---------------------------


def node_churn_plan(node_id: int = 1, at: float = 100.0,
                    duration: Optional[float] = 200.0, count: int = 1,
                    every: float = 600.0, seed: int = 0) -> FaultPlan:
    """``count`` down/up episodes on one service node, ``every`` s apart."""
    episodes = [
        NodeChurn(node_id=node_id, down_at=at + index * every,
                  duration=duration)
        for index in range(count)
    ]
    return FaultPlan(seed=seed, cluster=ClusterFaults(node_churn=episodes))


def slot_flap_plan(node_id: int = 0, at: float = 60.0, duration: float = 60.0,
                   count: int = 3, every: float = 180.0,
                   seed: int = 0) -> FaultPlan:
    """Flaky executor slot: repeatedly drained out of the grantable pool."""
    flaps = [
        SlotFlap(node_id=node_id, at=at + index * every, duration=duration)
        for index in range(count)
    ]
    return FaultPlan(seed=seed, cluster=ClusterFaults(slot_flaps=flaps))


def poison_tenant_plan(tenant: str = "*", probability: float = 0.2,
                       max_poisoned: int = 10, seed: int = 0) -> FaultPlan:
    """Poison jobs from one tenant; breaker armed so it can trip."""
    return FaultPlan(
        seed=seed,
        cluster=ClusterFaults(
            poison=[TenantPoison(tenant=tenant, probability=probability,
                                 max_poisoned=max_poisoned)],
            protection=ProtectionConfig(breaker_failures=3),
        ),
    )


def surge_plan(at: float = 200.0, duration: float = 300.0,
               factor: float = 3.0, tenant: Optional[str] = None,
               seed: int = 0) -> FaultPlan:
    """Demand surge: arrival rate multiplied by ``factor`` over a window."""
    return FaultPlan(
        seed=seed,
        cluster=ClusterFaults(
            surges=[DemandSurge(at=at, duration=duration, factor=factor,
                                tenant=tenant)],
        ),
    )


def overload_plan(node_id: int = 1, at: float = 100.0,
                  duration: Optional[float] = 200.0, factor: float = 3.0,
                  seed: int = 0) -> FaultPlan:
    """The full storm: node churn + surge under every protection guard."""
    return FaultPlan(
        seed=seed,
        cluster=ClusterFaults(
            node_churn=[NodeChurn(node_id=node_id, down_at=at,
                                  duration=duration)],
            surges=[DemandSurge(at=at, duration=duration or 200.0,
                                factor=factor)],
            protection=ProtectionConfig(
                max_queue=16,
                breaker_failures=3,
                degrade_queue=8,
            ),
        ),
    )


#: kind -> builder for ``repro faults generate KIND``; the first five are
#: engine-scope, the rest cluster-scope.
CANNED_PLANS = {
    "node-loss": node_loss_plan,
    "executor-loss": executor_loss_plan,
    "task-crashes": task_crash_plan,
    "disk-degrade": disk_degrade_plan,
    "stragglers": straggler_plan,
    "node-churn": node_churn_plan,
    "slot-flaps": slot_flap_plan,
    "poison-tenant": poison_tenant_plan,
    "surge": surge_plan,
    "overload": overload_plan,
}
