"""Workload-arrival plans: who submits which jobs, and when.

The single-job harness answers "how fast does one run finish"; the
multi-tenant service layer (SERVICE.md) asks what happens when a *stream*
of heterogeneous jobs from competing tenants lands on one shared cluster.
This module is the workload-arrival half of that layer: a declarative,
seeded :class:`ArrivalPlan` (JSON wire format ``repro.arrivals/1``) lists
tenants, each with an arrival process -- a seeded Poisson process or an
explicit trace of submission times -- and a weighted *job mix* drawn from
the existing workload catalog.

``ArrivalPlan.generate()`` expands the plan into a deterministic, sorted
sequence of :class:`JobArrival`\\ s: the same plan and seed produce the
same arrival sequence byte for byte, on any platform (per-tenant RNG
streams are derived SHA-256-style exactly like
:class:`repro.simulation.randomness.RandomStreams`, so adding a tenant
never perturbs another tenant's draws).  Scheduling the resulting jobs is
:mod:`repro.cluster.scheduler`'s business; running them through the engine
is :mod:`repro.harness.service`'s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.atomicio import atomic_write_text, loads_finite
from repro.simulation.randomness import RandomStreams
from repro.workloads.catalog import WORKLOADS

#: Wire-format marker checked on load; bump on incompatible change.
PLAN_SCHEMA = "repro.arrivals/1"

#: Policy spec kinds a plan may carry (the picklable subset of the harness
#: vocabulary -- callables and per-stage bestfit dicts cannot live in JSON).
_SCALAR_POLICIES = ("default", "dynamic")
_PARAMETRIC_POLICIES = ("static", "fixed")

#: Most jobs one Poisson tenant may submit; a plan past it (say, a rate so
#: high that simulated time stops advancing) is rejected, not expanded.
MAX_TENANT_JOBS = 10**6


class ArrivalPlanError(ValueError):
    """An arrival plan failed validation or could not be parsed."""


PolicyJson = Union[str, Sequence[Any]]


def _validate_policy(policy: Any) -> Union[str, Tuple[str, int]]:
    """Normalise a plan policy spec to the harness vocabulary."""
    if isinstance(policy, str):
        if policy not in _SCALAR_POLICIES:
            raise ArrivalPlanError(
                f"unknown policy {policy!r}; expected one of "
                f"{_SCALAR_POLICIES} or [kind, threads]"
            )
        return policy
    if isinstance(policy, (list, tuple)) and len(policy) == 2:
        kind, arg = policy
        if kind in _PARAMETRIC_POLICIES:
            try:
                threads = int(arg)
            except (TypeError, ValueError):
                raise ArrivalPlanError(
                    f"policy {kind!r} needs an integer thread count, "
                    f"got {arg!r}"
                ) from None
            if threads < 1:
                raise ArrivalPlanError(
                    f"policy thread count must be >= 1, got {threads}"
                )
            return (kind, threads)
    raise ArrivalPlanError(
        f"malformed policy spec {policy!r}; expected 'default', 'dynamic', "
        f"or ['static'|'fixed', threads]"
    )


@dataclass(frozen=True)
class JobTemplate:
    """One entry of a tenant's job mix.

    Jobs stamped from the same template are identical replicas (the inner
    simulation is deterministic), so service-level variation comes from
    *arrivals and contention* -- the classic queueing-theory framing -- and
    a thousand-job scenario costs one engine run per distinct template.
    ``seed`` seeds the inner run's cluster exactly like ``repro run
    --seed``.
    """

    workload: str
    scale: float = 1.0
    policy: Union[str, Tuple[str, int]] = "default"
    conf: Dict[str, Any] = field(default_factory=dict)
    seed: int = 42
    weight: float = 1.0
    name: Optional[str] = None

    def validate(self) -> None:
        if self.workload not in WORKLOADS:
            raise ArrivalPlanError(
                f"unknown workload {self.workload!r}; known: "
                f"{', '.join(sorted(WORKLOADS))}"
            )
        if not 0 < self.scale < math.inf:
            raise ArrivalPlanError(
                f"scale must be positive and finite, got {self.scale}")
        if not self.weight > 0:
            raise ArrivalPlanError(
                f"mix weight must be positive, got {self.weight}"
            )
        if self.name is not None and not isinstance(self.name, str):
            raise ArrivalPlanError(
                f"job template name must be a string, got {self.name!r}"
            )
        _validate_policy(self.policy)

    @property
    def label(self) -> str:
        return self.name or self.workload

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"workload": self.workload}
        if self.scale != 1.0:
            doc["scale"] = self.scale
        if self.policy != "default":
            doc["policy"] = (
                list(self.policy)
                if isinstance(self.policy, tuple) else self.policy
            )
        if self.conf:
            doc["conf"] = dict(self.conf)
        if self.seed != 42:
            doc["seed"] = self.seed
        if self.weight != 1.0:
            doc["weight"] = self.weight
        if self.name is not None:
            doc["name"] = self.name
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobTemplate":
        _reject_unknown(doc, {"workload", "scale", "policy", "conf", "seed",
                              "weight", "name"}, "job template")
        if "workload" not in doc:
            raise ArrivalPlanError("job template missing 'workload'")
        policy = doc.get("policy", "default")
        template = cls(
            workload=doc["workload"],
            scale=float(doc.get("scale", 1.0)),
            policy=_validate_policy(policy),
            conf=dict(doc.get("conf", {})),
            seed=int(doc.get("seed", 42)),
            weight=float(doc.get("weight", 1.0)),
            name=doc.get("name"),
        )
        template.validate()
        return template


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: its fair-share weight, slot demand, arrivals, and mix.

    ``slots`` is the number of cluster nodes every one of this tenant's
    jobs runs on -- executors are the unit of allocation *across* jobs
    (the Elasecutor framing), so a job holds ``slots`` nodes from start to
    finish.  ``weight`` only matters under the weighted-fair discipline.
    """

    name: str
    mix: Tuple[JobTemplate, ...]
    weight: float = 1.0
    slots: int = 1
    #: Arrival process: ``("poisson", rate, start, end)`` with ``end=None``
    #: meaning the plan horizon, or ``("trace", times)``.
    process: Tuple[Any, ...] = ("trace", ())

    def validate(self, horizon: Optional[float]) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ArrivalPlanError(
                f"tenant name must be a non-empty string, got {self.name!r}"
            )
        if not self.weight > 0:
            raise ArrivalPlanError(
                f"tenant {self.name!r}: weight must be positive, "
                f"got {self.weight}"
            )
        if not self.slots >= 1:
            raise ArrivalPlanError(
                f"tenant {self.name!r}: slots must be >= 1, got {self.slots}"
            )
        if not self.mix:
            raise ArrivalPlanError(
                f"tenant {self.name!r}: job mix must be non-empty"
            )
        for template in self.mix:
            template.validate()
        kind = self.process[0]
        if kind == "poisson":
            _kind, rate, start, end = self.process
            if not rate > 0:
                raise ArrivalPlanError(
                    f"tenant {self.name!r}: poisson rate must be positive, "
                    f"got {rate}"
                )
            if not start >= 0:
                raise ArrivalPlanError(
                    f"tenant {self.name!r}: start must be >= 0, got {start}"
                )
            if end is None and horizon is None:
                raise ArrivalPlanError(
                    f"tenant {self.name!r}: poisson arrivals need an 'end' "
                    f"or a plan horizon"
                )
            if end is not None and not end >= start:
                raise ArrivalPlanError(
                    f"tenant {self.name!r}: end {end} before start {start}"
                )
        elif kind == "trace":
            times = self.process[1]
            if not all(t >= 0 for t in times):
                raise ArrivalPlanError(
                    f"tenant {self.name!r}: trace times must be >= 0"
                )
            if list(times) != sorted(times):
                raise ArrivalPlanError(
                    f"tenant {self.name!r}: trace times must be sorted"
                )
        else:
            raise ArrivalPlanError(
                f"tenant {self.name!r}: unknown arrival process {kind!r} "
                f"(expected 'poisson' or 'trace')"
            )

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"name": self.name}
        if self.weight != 1.0:
            doc["weight"] = self.weight
        if self.slots != 1:
            doc["slots"] = self.slots
        kind = self.process[0]
        if kind == "poisson":
            _kind, rate, start, end = self.process
            arrivals: Dict[str, Any] = {"process": "poisson", "rate": rate}
            if start:
                arrivals["start"] = start
            if end is not None:
                arrivals["end"] = end
            doc["arrivals"] = arrivals
        else:
            doc["arrivals"] = {"process": "trace",
                               "times": list(self.process[1])}
        doc["mix"] = [template.to_dict() for template in self.mix]
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TenantSpec":
        _reject_unknown(doc, {"name", "weight", "slots", "arrivals", "mix"},
                        "tenant")
        if "name" not in doc:
            raise ArrivalPlanError("tenant missing 'name'")
        if "arrivals" not in doc:
            raise ArrivalPlanError(f"tenant {doc['name']!r} missing 'arrivals'")
        arrivals = doc["arrivals"]
        _reject_unknown(arrivals, {"process", "rate", "start", "end", "times"},
                        f"tenant {doc['name']!r} arrivals")
        kind = arrivals.get("process")
        if kind == "poisson":
            process: Tuple[Any, ...] = (
                "poisson",
                float(arrivals.get("rate", 0.0)),
                float(arrivals.get("start", 0.0)),
                (None if arrivals.get("end") is None
                 else float(arrivals["end"])),
            )
        elif kind == "trace":
            process = ("trace",
                       tuple(float(t) for t in arrivals.get("times", ())))
        else:
            raise ArrivalPlanError(
                f"tenant {doc['name']!r}: unknown arrival process {kind!r}"
            )
        return cls(
            name=doc["name"],
            weight=float(doc.get("weight", 1.0)),
            slots=int(doc.get("slots", 1)),
            process=process,
            mix=tuple(JobTemplate.from_dict(t) for t in doc.get("mix", ())),
        )


@dataclass(frozen=True)
class JobArrival:
    """One concrete job submission expanded from a plan."""

    job_id: str
    tenant: str
    time: float
    template: JobTemplate
    slots: int
    tenant_weight: float


@dataclass(frozen=True)
class ArrivalPlan:
    """A versioned, seeded multi-tenant arrival plan (``repro.arrivals/1``)."""

    tenants: Tuple[TenantSpec, ...]
    seed: int = 0
    #: Default end time (simulated seconds) for Poisson tenants without an
    #: explicit ``end``; trace tenants ignore it.
    horizon: Optional[float] = None

    def validate(self) -> None:
        if self.horizon is not None and not self.horizon > 0:
            raise ArrivalPlanError(
                f"horizon must be positive, got {self.horizon}"
            )
        if not self.tenants:
            raise ArrivalPlanError("plan must declare at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ArrivalPlanError(f"duplicate tenant names in {names}")
        for tenant in self.tenants:
            tenant.validate(self.horizon)

    # -- expansion ---------------------------------------------------------

    def generate(self) -> List[JobArrival]:
        """Expand into the deterministic, time-sorted job sequence.

        Each tenant draws inter-arrival gaps and mix choices from its own
        named RNG stream (``arrivals.<tenant>``), so the sequence is stable
        under tenant addition/removal; ties are broken by tenant name, then
        per-tenant submission order.  Job ids are ``j0000``, ``j0001``, ...
        in final order.
        """
        self.validate()
        streams = RandomStreams(self.seed)
        pending: List[Tuple[float, str, int, JobTemplate]] = []
        for tenant in self.tenants:
            rng = streams.stream(f"arrivals.{tenant.name}")
            times: List[float] = []
            if tenant.process[0] == "poisson":
                _kind, rate, start, end = tenant.process
                if end is None:
                    end = self.horizon
                t = start
                while True:
                    t += rng.expovariate(rate)
                    if t > end:
                        break
                    if len(times) == MAX_TENANT_JOBS:
                        raise ArrivalPlanError(
                            f"tenant {tenant.name!r} submits more than "
                            f"{MAX_TENANT_JOBS} jobs"
                        )
                    times.append(t)
            else:
                times = list(tenant.process[1])
            weights = [template.weight for template in tenant.mix]
            total = sum(weights)
            for index, time in enumerate(times):
                draw = rng.random() * total
                cumulative = 0.0
                chosen = tenant.mix[-1]
                for template, weight in zip(tenant.mix, weights):
                    cumulative += weight
                    if draw < cumulative:
                        chosen = template
                        break
                pending.append((time, tenant.name, index, chosen))
        pending.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        by_name = {tenant.name: tenant for tenant in self.tenants}
        return [
            JobArrival(
                job_id=f"j{index:04d}",
                tenant=name,
                time=time,
                template=template,
                slots=by_name[name].slots,
                tenant_weight=by_name[name].weight,
            )
            for index, (time, name, _seq, template) in enumerate(pending)
        ]

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"schema": PLAN_SCHEMA, "seed": self.seed}
        if self.horizon is not None:
            doc["horizon"] = self.horizon
        doc["tenants"] = [tenant.to_dict() for tenant in self.tenants]
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ArrivalPlan":
        if not isinstance(doc, dict):
            raise ArrivalPlanError(f"plan must be a JSON object, got {type(doc).__name__}")
        schema = doc.get("schema")
        if schema != PLAN_SCHEMA:
            raise ArrivalPlanError(
                f"unsupported schema {schema!r} (expected {PLAN_SCHEMA!r})"
            )
        _reject_unknown(doc, {"schema", "seed", "horizon", "tenants"}, "plan")
        try:
            plan = cls(
                seed=int(doc.get("seed", 0)),
                horizon=(None if doc.get("horizon") is None
                         else float(doc["horizon"])),
                tenants=tuple(TenantSpec.from_dict(t)
                              for t in doc.get("tenants", ())),
            )
            plan.validate()
        except ArrivalPlanError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            # A field of the wrong type or value: a conversion or a
            # comparison in validate() failed on it.
            raise ArrivalPlanError(f"malformed plan: {exc}") from None
        return plan

    def to_json(self) -> str:
        try:
            return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                              allow_nan=False)
        except ValueError as exc:
            raise ArrivalPlanError(f"not valid JSON: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ArrivalPlan":
        try:
            doc = loads_finite(text)
        except ValueError as exc:
            raise ArrivalPlanError(f"not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    def save(self, path: str) -> None:
        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ArrivalPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            raise ArrivalPlanError(f"no such file: {path}") from None
        except UnicodeDecodeError as exc:
            raise ArrivalPlanError(f"{path} is not UTF-8 text: {exc}") from None
        return cls.from_json(text)


def _reject_unknown(doc: Dict[str, Any], allowed: set, what: str) -> None:
    if not isinstance(doc, dict):
        raise ArrivalPlanError(
            f"{what} must be a JSON object, got {type(doc).__name__}"
        )
    unknown = set(doc) - allowed
    if unknown:
        raise ArrivalPlanError(
            f"unknown {what} field(s): {', '.join(sorted(unknown))}"
        )


# -- canned plans (CLI `repro arrivals generate`, CI, examples) -------------


def poisson_plan(
    tenants: int = 2,
    rate: float = 0.02,
    horizon: float = 3600.0,
    workloads: Sequence[str] = ("terasort", "wordcount"),
    scale: float = 0.05,
    slots: int = 1,
    policy: Union[str, Tuple[str, int]] = "default",
    seed: int = 0,
    job_seed: int = 42,
) -> ArrivalPlan:
    """``tenants`` identical Poisson tenants sharing one mix of ``workloads``.

    ``rate`` is per-tenant jobs per simulated second over ``[0, horizon]``;
    expected job count is ``tenants * rate * horizon``.
    """
    mix = tuple(
        JobTemplate(workload=name, scale=scale, policy=policy, seed=job_seed)
        for name in workloads
    )
    return ArrivalPlan(
        seed=seed,
        horizon=horizon,
        tenants=tuple(
            TenantSpec(
                name=f"tenant{index}",
                slots=slots,
                process=("poisson", rate, 0.0, None),
                mix=mix,
            )
            for index in range(tenants)
        ),
    )


def single_job_plan(
    workload: str = "terasort",
    scale: float = 1.0,
    slots: int = 4,
    policy: Union[str, Tuple[str, int]] = "default",
    seed: int = 0,
    job_seed: int = 42,
) -> ArrivalPlan:
    """One tenant submitting one job at t=0.

    ``repro serve`` on this plan is the degenerate single-job service: with
    ``--events`` it writes an event log byte-identical to the equivalent
    ``repro run`` (the CI serve job ``cmp``s it against the golden log).
    """
    return ArrivalPlan(
        seed=seed,
        tenants=(
            TenantSpec(
                name="tenant0",
                slots=slots,
                process=("trace", (0.0,)),
                mix=(JobTemplate(workload=workload, scale=scale,
                                 policy=policy, seed=job_seed),),
            ),
        ),
    )


#: name -> builder, mirroring ``repro.faults.plan.CANNED_PLANS``.
CANNED_PLANS = {
    "poisson": poisson_plan,
    "single": single_job_plan,
}
