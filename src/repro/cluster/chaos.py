"""Cluster-scope chaos machinery: the runtime half of ``repro.faults/2``.

:mod:`repro.faults.plan` *describes* cluster faults; this module holds the
seeded decision logic the service layer needs to act on them:

* :func:`backoff_delay` -- exponential backoff with jitter for requeued
  attempts, drawn from a dedicated :class:`~repro.simulation.randomness.
  RandomStreams` substream keyed on ``(job_id, attempt)``.  Keyed streams
  make every draw order-independent: adding a fault, a tenant, or a retry
  elsewhere never perturbs this job's delays, which is what keeps seeded
  chaos runs byte-identical across re-runs.
* :func:`poison_roll` / :func:`match_poison` -- per-attempt poison-job
  decisions for :class:`~repro.faults.plan.TenantPoison` rules.
* :class:`CircuitBreaker` -- the per-tenant closed -> open -> half-open ->
  closed state machine with a seeded cool-down.
* :func:`expand_surges` -- applies :class:`~repro.faults.plan.DemandSurge`
  windows to a generated arrival sequence by Poisson superposition
  (``factor > 1``) or thinning (``factor < 1``), without touching the base
  arrival draws (surge streams live under the *fault* plan's seed, not the
  arrival plan's).

Everything here is pure and wall-clock-free; the event-loop integration
lives in :class:`repro.cluster.scheduler.ClusterScheduler`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import (
    ClusterFaults,
    DemandSurge,
    ProtectionConfig,
    TenantPoison,
    exponential_backoff,
)
from repro.simulation.randomness import RandomStreams

#: Legal circuit-breaker transitions (enforced by the validation layer).
BREAKER_STATES = ("closed", "open", "half_open")
LEGAL_BREAKER_TRANSITIONS = {
    "closed": ("open",),
    "open": ("half_open",),
    "half_open": ("closed", "open"),
}


def backoff_delay(protection: ProtectionConfig, streams: RandomStreams,
                  job_id: str, attempt: int) -> float:
    """Seeded exponential backoff for retry ``attempt`` (1-based) of a job."""
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    base = exponential_backoff(protection.backoff_base, attempt,
                               protection.backoff_cap)
    u = streams.stream(f"chaos.backoff.{job_id}.{attempt}").random()
    return base * (1.0 + protection.backoff_jitter * u)


def match_poison(chaos: ClusterFaults, tenant: str) -> Optional[Tuple[int, TenantPoison]]:
    """First poison rule matching ``tenant`` (exact or ``"*"``), with index."""
    for index, rule in enumerate(chaos.poison):
        if rule.tenant == tenant or rule.tenant == "*":
            return index, rule
    return None


def poison_roll(streams: RandomStreams, job_id: str, attempt: int) -> float:
    """The seeded uniform deciding whether this attempt is poisoned."""
    return streams.stream(f"chaos.poison.{job_id}.{attempt}").random()


class CircuitBreaker:
    """Per-tenant circuit breaker: K consecutive failures open the circuit.

    While *open* every submission from the tenant is shed.  After a seeded
    cool-down the breaker goes *half-open* and admits exactly one probe
    job; the probe's success closes the circuit (failure counter reset),
    its failure reopens it with a fresh cool-down.  All transitions are
    recorded (and reported) so the validation layer can check legality.
    """

    def __init__(self, tenant: str, protection: ProtectionConfig,
                 streams: RandomStreams,
                 on_transition: Optional[Callable[[float, str, str, str], None]] = None) -> None:
        self.tenant = tenant
        self.threshold = protection.breaker_failures
        self.cooldown = protection.breaker_cooldown
        self.jitter = protection.breaker_jitter
        self.state = "closed"
        self.consecutive = 0
        self.opens = 0
        self.probe_job: Optional[str] = None
        #: [(time, state), ...] -- every state entered, in order.
        self.transitions: List[Tuple[float, str]] = []
        self._streams = streams
        self._on_transition = on_transition

    def _enter(self, now: float, state: str) -> None:
        old = self.state
        self.state = state
        self.transitions.append((now, state))
        if self._on_transition is not None:
            self._on_transition(now, self.tenant, old, state)

    def allow(self, job_id: str) -> bool:
        """May this submission pass admission right now?"""
        if self.state == "closed":
            return True
        if self.state == "half_open" and self.probe_job is None:
            self.probe_job = job_id
            return True
        # A requeued attempt of the probe itself stays admitted.
        return self.state == "half_open" and self.probe_job == job_id

    def record_failure(self, now: float, job_id: str) -> Optional[float]:
        """Count one tenant-attributable failure.

        Returns the absolute time of the half-open probe when this failure
        opens (or reopens) the circuit, else ``None``.
        """
        self.consecutive += 1
        reopen = self.state == "half_open" and job_id == self.probe_job
        trip = (self.state == "closed" and self.threshold is not None
                and self.consecutive >= self.threshold)
        if not (reopen or trip):
            return None
        self.opens += 1
        self.probe_job = None
        self._enter(now, "open")
        u = self._streams.stream(
            f"chaos.breaker.{self.tenant}.{self.opens}"
        ).random()
        return now + self.cooldown * (1.0 + self.jitter * u)

    def record_success(self, now: float, job_id: str) -> None:
        self.consecutive = 0
        if self.state == "half_open" and job_id == self.probe_job:
            self.probe_job = None
            self._enter(now, "closed")

    def half_open(self, now: float) -> None:
        """Cool-down expired: admit one probe (no-op unless still open)."""
        if self.state == "open":
            self.probe_job = None
            self._enter(now, "half_open")


def expand_surges(plan, arrivals: Sequence, surges: Sequence[DemandSurge],
                  seed: int) -> List:
    """Apply demand surges to a generated arrival sequence, deterministically.

    ``plan`` is the :class:`~repro.workloads.arrivals.ArrivalPlan` the
    arrivals came from (needed for tenant rates and job mixes).  Returns a
    new time-sorted list with job ids reassigned ``j0000...``; with no
    surges the input ids are reproduced exactly.  Superposition only
    applies to Poisson tenants (a trace tenant has no base rate to
    multiply); thinning applies to every tenant.
    """
    streams = RandomStreams(seed)
    by_name = {tenant.name: tenant for tenant in plan.tenants}

    def thin_factor(tenant: str, time: float) -> float:
        """Combined keep-probability from every thinning surge covering t."""
        factor = 1.0
        for surge in surges:
            if surge.tenant is not None and surge.tenant != tenant:
                continue
            if surge.at <= time < surge.at + surge.duration and surge.factor < 1.0:
                factor *= surge.factor
        return factor

    # 1. thinning: keep each in-window arrival with the combined factor.
    kept = []
    thin_index: Dict[str, int] = {}
    for arrival in arrivals:
        factor = thin_factor(arrival.tenant, arrival.time)
        if factor < 1.0:
            index = thin_index.get(arrival.tenant, 0)
            thin_index[arrival.tenant] = index + 1
            u = streams.stream(f"chaos.thin.{arrival.tenant}.{index}").random()
            if u >= factor:
                continue
        kept.append(arrival)

    # 2. superposition: extra Poisson arrivals at (factor - 1) x base rate.
    extras = []
    for surge_index, surge in enumerate(surges):
        if surge.factor <= 1.0:
            continue
        for tenant in plan.tenants:
            if surge.tenant is not None and surge.tenant != tenant.name:
                continue
            if tenant.process[0] != "poisson":
                continue
            _kind, rate, start, end = tenant.process
            if end is None:
                end = plan.horizon
            lo = max(surge.at, start)
            hi = surge.at + surge.duration
            if end is not None:
                hi = min(hi, end)
            if hi <= lo:
                continue
            rng = streams.stream(f"chaos.surge.{tenant.name}.{surge_index}")
            weights = [template.weight for template in tenant.mix]
            total = sum(weights)
            t = lo
            while True:
                t += rng.expovariate(rate * (surge.factor - 1.0))
                if t > hi:
                    break
                draw = rng.random() * total
                cumulative = 0.0
                chosen = tenant.mix[-1]
                for template, weight in zip(tenant.mix, weights):
                    cumulative += weight
                    if draw < cumulative:
                        chosen = template
                        break
                extras.append((t, tenant.name, chosen))

    # 3. merge, re-sort with the generator's tie-break (time, tenant,
    #    per-tenant submission order), and reassign ids in final order.
    pending = [(a.time, a.tenant, 0, index, a.template)
               for index, a in enumerate(kept)]
    pending.extend((time, name, 1, index, template)
                   for index, (time, name, template) in enumerate(extras))
    pending.sort(key=lambda entry: entry[:4])
    from repro.workloads.arrivals import JobArrival

    return [
        JobArrival(
            job_id=f"j{index:04d}",
            tenant=name,
            time=time,
            template=template,
            slots=by_name[name].slots,
            tenant_weight=by_name[name].weight,
        )
        for index, (time, name, _src, _seq, template) in enumerate(pending)
    ]
