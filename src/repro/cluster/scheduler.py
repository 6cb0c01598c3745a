"""Cluster-level scheduler: whole jobs competing for executor slots.

The engine's DAG scheduler places *tasks* inside one job; this module
adds the layer above it -- the Elasecutor framing where executors are the
unit of allocation *across* competing applications.  A
:class:`ClusterScheduler` admits jobs from a multi-tenant arrival
sequence (:mod:`repro.workloads.arrivals`), queues them under a
discipline (``fifo`` | ``fair`` | ``wfair``), and grants each job a
fixed block of executor slots for its whole service time.  Service times
come from the deterministic inner engine via the runtime oracle in
:mod:`repro.harness.service`, so the outer loop here is a pure,
wall-clock-free discrete-event simulation: same arrivals + same runtimes
-> same schedule, byte for byte.

Slots are backed by named *nodes* (one slot per node), which is what the
cluster-scope chaos layer (``repro.faults/2``, FAULTS.md "Cluster failure
model") acts on: node churn kills the jobs holding a node and requeues
them with a per-job retry budget and seeded exponential backoff; slot
flaps drain a node out of the grantable pool without killing its work;
per-tenant poison rules fail attempts partway through; and the
:class:`~repro.faults.plan.ProtectionConfig` guards push back -- deadline
aborts, queue/wait admission shedding, per-tenant circuit breakers, and
graceful degradation that shrinks slot grants under sustained pressure.
A run with neither chaos nor protection takes none of these paths and
is byte-identical to the pre-chaos scheduler.

Disciplines (all starvation-free by head-of-line blocking -- when the
chosen queue's head does not fit in the free slots, dispatch stops
rather than skipping ahead, so a wide job can never be overtaken
forever):

* ``fifo``  -- one global queue in arrival order.
* ``fair``  -- pick the tenant with the fewest running slots, then its
  earliest job (max-min slot fairness, unit weights).
* ``wfair`` -- like ``fair`` but normalised by tenant weight
  (``running_slots / weight``).

Admission has one path: arrivals and retries alike pass the protection
guards (breaker, ``max_queue``, ``max_wait``), which apply with or
without chaos -- ``repro serve --max-queue/--max-wait`` sets the same
fields a plan does.  Service-level metrics (job latency, queueing
delay, per-tenant splits, resilience counters) flow through the shared
observability registry under the ``service.*`` names;
:mod:`repro.harness.service` folds them into the versioned
``repro.service/1`` SLO report.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.observability.metrics import MetricsRegistry, tenant_metric

if TYPE_CHECKING:  # imported lazily at runtime: workloads -> engine -> cluster
    from repro.faults.plan import ClusterFaults, ProtectionConfig
    from repro.validation.cluster import ClusterInvariantMonitor
    from repro.workloads.arrivals import JobArrival

#: Queue disciplines accepted by :class:`ClusterScheduler` and `repro serve`.
DISCIPLINES = ("fifo", "fair", "wfair")


@dataclass
class ServiceJob:
    """One job's trip through the service: arrival -> queue -> slots -> done.

    ``runtime`` is the inner-engine service time (simulated seconds) the
    job needs once granted ``slots`` executors; it is supplied by the
    runtime oracle before the outer simulation starts.
    ``runtime_by_slots`` optionally adds service times at alternative
    (degraded) grant sizes.
    """

    job_id: str
    tenant: str
    workload: str
    arrival: float
    slots: int
    runtime: float
    tenant_weight: float = 1.0
    #: Oracle runtimes at alternative grant sizes (graceful degradation).
    runtime_by_slots: Dict[int, float] = field(default_factory=dict)

    # -- state mutated by the scheduler --
    start: Optional[float] = None          #: start of the final (successful) execution
    end: Optional[float] = None            #: completion time
    rejected: bool = False
    served: float = 0.0                    #: seconds of service received, incl. failed attempts
    retries: int = 0                       #: fault-triggered re-executions
    failures: int = 0                      #: tenant-attributable attempt failures
    aborted: bool = False
    abort_reason: Optional[str] = None
    shed_reason: Optional[str] = None      #: why admission shed this job, if it did
    granted: Optional[int] = None          #: slots granted in the latest attempt
    degraded: int = 0                      #: attempts run with a shrunken grant
    node_ids: Tuple[int, ...] = ()         #: nodes held by the running attempt
    _generation: int = 0                   #: invalidates stale completion events
    _attempt_slots: int = 0
    _attempt_runtime: float = 0.0

    def runtime_for(self, slots: int) -> float:
        """Service time at a given grant size (the oracle must have it)."""
        if slots == self.slots:
            return self.runtime
        return self.runtime_by_slots[slots]

    def degraded_slots(self) -> Optional[int]:
        """The shrunken grant size, when the oracle priced one."""
        candidates = [size for size in self.runtime_by_slots
                      if size < self.slots]
        return min(candidates) if candidates else None

    @property
    def latency(self) -> Optional[float]:
        """Sojourn time (arrival -> completion), None if not completed."""
        if self.end is None:
            return None
        return self.end - self.arrival

    @property
    def queue_delay(self) -> Optional[float]:
        """Time spent waiting, i.e. sojourn minus all time in service."""
        if self.end is None:
            return None
        return (self.end - self.arrival) - self.served


class _Node:
    """One service-layer node = one executor slot, with chaos state."""

    __slots__ = ("down", "flaps", "job")

    def __init__(self) -> None:
        self.down = 0        #: overlapping churn episodes holding it down
        self.flaps = 0       #: overlapping slot flaps draining it
        self.job: Optional[str] = None

    @property
    def grantable(self) -> bool:
        return self.down == 0 and self.flaps == 0 and self.job is None


#: One queue entry: (arrival, submit seq, job); ``seq`` is unique, so
#: entries order totally without ever comparing jobs.
_Entry = Tuple[float, int, ServiceJob]


class _JobQueue:
    """The scheduler's wait queue, indexed so each decision is cheap.

    Entries live in an insertion-ordered dict keyed by ``seq``: O(1)
    ``len`` and removal, and iteration in submission order (the order the
    ``max_wait`` guard sums queued work in).  Heads come from heaps keyed
    ``(arrival, seq)`` -- one global heap under ``fifo``, one per tenant
    under ``fair``/``wfair`` -- whose removed entries are skipped lazily.
    The fair tenant is the minimum ``(running slots / weight, tenant)``
    over tenants with queued entries, an O(tenants) scan.
    """

    __slots__ = ("_fair", "_weighted", "_entries", "_seq_of", "_heaps",
                 "_live", "_weights")

    def __init__(self, discipline: str) -> None:
        self._fair = discipline != "fifo"
        self._weighted = discipline == "wfair"
        self._entries: Dict[int, _Entry] = {}
        self._seq_of: Dict[str, int] = {}        #: job_id -> queued seq
        self._heaps: Dict[str, List[_Entry]] = {}
        self._live: Dict[str, int] = {}          #: heap key -> live entries
        self._weights: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def _key(self, job: ServiceJob) -> str:
        return job.tenant if self._fair else ""

    def push(self, arrival: float, seq: int, job: ServiceJob) -> None:
        entry = (arrival, seq, job)
        key = self._key(job)
        self._entries[seq] = entry
        self._seq_of[job.job_id] = seq
        heap = self._heaps.get(key)
        if heap is None:
            heap = self._heaps[key] = []
            self._live[key] = 0
            self._weights[key] = job.tenant_weight if self._weighted else 1.0
        heapq.heappush(heap, entry)
        self._live[key] += 1

    def remove(self, job: ServiceJob) -> bool:
        """Drop ``job``'s entry; False when it is not queued."""
        seq = self._seq_of.pop(job.job_id, None)
        if seq is None:
            return False
        del self._entries[seq]
        self._live[self._key(job)] -= 1
        return True

    def head(self, usage: Dict[str, int]) -> _Entry:
        """The entry the discipline considers next (queue must be non-empty).

        ``usage`` maps tenant -> slots held by its running jobs.
        """
        key = ""
        if self._fair:
            best: Optional[Tuple[float, str]] = None
            for tenant, live in self._live.items():
                if live:
                    share = usage.get(tenant, 0) / self._weights[tenant]
                    if best is None or (share, tenant) < best:
                        best = (share, tenant)
            assert best is not None
            key = best[1]
        heap = self._heaps[key]
        entries = self._entries
        while heap[0][1] not in entries:
            heapq.heappop(heap)
        return heap[0]

    def ordered(self) -> List[_Entry]:
        """Entries in ``(arrival, seq)`` order."""
        return sorted(self._entries.values())


@dataclass
class ServiceResult:
    """Outcome of one scheduled scenario, ready for report assembly."""

    jobs: List[ServiceJob]
    discipline: str
    total_slots: int
    makespan: float
    submitted: int
    completed: int
    rejected: int
    #: slot-seconds of completed service, per tenant (fairness input).
    slot_seconds: Dict[str, float]
    #: slot-seconds thrown away by killed attempts (lost work).
    wasted_slot_seconds: float
    registry: MetricsRegistry
    # -- resilience (all zero / empty on a chaos-free run) --
    aborted: int = 0
    retried: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    slo_violations: int = 0
    degraded_grants: int = 0
    #: One record per node-churn episode that killed work, resolution order.
    mttr: List[Dict[str, Any]] = field(default_factory=list)
    #: tenant -> {state, opens, transitions} for armed circuit breakers.
    breakers: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    node_downtime: float = 0.0

    @property
    def preempted(self) -> int:
        """Always 0: the scheduler never preempts.  ``repro.service/1``
        keeps its ``preemptions`` counts, so the layout is unchanged."""
        return 0

    @property
    def utilization(self) -> float:
        """Useful slot-seconds over capacity slot-seconds (0 if empty)."""
        capacity = self.total_slots * self.makespan
        if capacity <= 0:
            return 0.0
        return sum(self.slot_seconds.values()) / capacity

    @property
    def goodput(self) -> float:
        """Completed jobs per simulated second (0 if makespan is 0)."""
        if self.makespan <= 0:
            return 0.0
        return self.completed / self.makespan

    def fairness_index(self, weights: Dict[str, float]) -> float:
        """Jain's fairness index over weight-normalised tenant service.

        1.0 means every tenant received slot-seconds exactly proportional
        to its weight; 1/n means one tenant got everything.  Degenerate
        cases (no service, single tenant) read as perfectly fair.
        """
        shares = [
            self.slot_seconds.get(tenant, 0.0) / weights.get(tenant, 1.0)
            for tenant in sorted(weights)
        ]
        total = sum(shares)
        if len(shares) <= 1 or total <= 0:
            return 1.0
        squares = sum(share * share for share in shares)
        return (total * total) / (len(shares) * squares)


class ClusterScheduler:
    """Deterministic event-driven service loop over executor slots.

    ``protection`` is the guard policy in force (shedding, deadlines,
    breakers, degradation); it defaults to ``chaos.protection`` and
    applies chaos-free too.
    """

    def __init__(
        self,
        total_slots: int,
        discipline: str = "fifo",
        registry: Optional[MetricsRegistry] = None,
        chaos: Optional["ClusterFaults"] = None,
        chaos_seed: int = 0,
        monitor: Optional["ClusterInvariantMonitor"] = None,
        protection: Optional["ProtectionConfig"] = None,
    ) -> None:
        if total_slots < 1:
            raise ValueError(f"total_slots must be >= 1, got {total_slots}")
        if discipline not in DISCIPLINES:
            raise ValueError(
                f"unknown discipline {discipline!r}; expected one of "
                f"{DISCIPLINES}"
            )
        self.total_slots = total_slots
        self.discipline = discipline
        if protection is None and chaos is not None:
            protection = chaos.protection
        self.protection = protection
        self.registry = registry if registry is not None else MetricsRegistry()
        self.chaos = chaos
        self.chaos_seed = chaos_seed
        self.monitor = monitor
        if chaos is not None:
            for episode in list(chaos.node_churn) + list(chaos.slot_flaps):
                if episode.node_id >= total_slots:
                    raise ValueError(
                        f"chaos plan targets node {episode.node_id} but the "
                        f"cluster has {total_slots} node(s)"
                    )

    # -- public API --------------------------------------------------------

    def run(self, jobs: Sequence[ServiceJob]) -> ServiceResult:
        """Schedule ``jobs`` to completion and return the service result.

        Raises :class:`~repro.workloads.arrivals.ArrivalPlanError` when a
        job demands more slots than the cluster has (it could never run),
        and :class:`ValueError` for a negative runtime or a tenant weight
        that is not positive and finite or differs between a tenant's jobs.
        """
        from repro.workloads.arrivals import ArrivalPlanError

        weights: Dict[str, float] = {}
        for job in jobs:
            weight = job.tenant_weight
            if not 0.0 < weight < float("inf"):
                raise ValueError(
                    f"job {job.job_id} ({job.tenant}): tenant_weight must "
                    f"be positive and finite, got {weight}"
                )
            if weights.setdefault(job.tenant, weight) != weight:
                raise ValueError(
                    f"job {job.job_id}: tenant {job.tenant!r} has weight "
                    f"{weight}, but an earlier job has "
                    f"{weights[job.tenant]}"
                )
            if job.slots > self.total_slots:
                raise ArrivalPlanError(
                    f"job {job.job_id} ({job.tenant}) needs {job.slots} "
                    f"slots but the cluster has {self.total_slots}"
                )
            if job.runtime < 0:
                raise ValueError(
                    f"job {job.job_id}: runtime must be >= 0, "
                    f"got {job.runtime}"
                )

        arrivals = sorted(jobs, key=lambda job: (job.arrival, job.job_id))
        # Queue entries keep (arrival, submit_seq) so retried jobs fall
        # back into arrival order deterministically.
        queued = _JobQueue(self.discipline)
        running: Dict[str, ServiceJob] = {}
        #: tenant -> slots its running jobs hold (``job.slots``, not the
        #: possibly degraded grant: the fair share counts what was asked).
        usage: Dict[str, int] = {}
        run_start: Dict[str, float] = {}
        completions: List[Tuple[float, int, str, int, str]] = []
        nodes = [_Node() for _ in range(self.total_slots)]
        now = 0.0
        seq = 0
        next_arrival = 0
        completed = 0
        rejected = 0
        aborted = 0
        retried = 0
        degraded_grants = 0
        slo_violations = 0
        pending_retries = 0
        wasted = 0.0
        node_downtime = 0.0
        slot_seconds: Dict[str, float] = {}
        shed_counts: Dict[str, int] = {}
        makespan = 0.0

        metrics = self.registry
        monitor = self.monitor
        submitted_counter = metrics.counter("service.jobs.submitted")
        completed_counter = metrics.counter("service.jobs.completed")
        rejected_counter = metrics.counter("service.jobs.rejected")
        latency_hist = metrics.histogram("service.job_latency")
        delay_hist = metrics.histogram("service.queue_delay")

        # -- guard machinery (untouched, and metrics uncreated, when no
        #    protection applies) --
        chaos = self.chaos
        protection = self.protection
        if protection is not None:
            from repro.cluster.chaos import (
                CircuitBreaker,
                backoff_delay,
                match_poison,
                poison_roll,
            )
            from repro.simulation.randomness import RandomStreams

            streams = RandomStreams(self.chaos_seed)
            retried_counter = metrics.counter("service.jobs.retried")
            shed_counter = metrics.counter("service.jobs.shed")
            aborted_counter = metrics.counter("service.jobs.aborted")
            slo_counter = metrics.counter("service.slo_violations")
            breaker_opens_counter = metrics.counter("service.breaker.opens")
            backoff_hist = metrics.histogram("service.retry_backoff")
            mttr_hist = metrics.histogram("service.mttr")
        else:
            streams = None
            shed_counter = None

        # Timed chaos events: (time, tseq, kind, payload); tseq keeps the
        # heap total-ordered without ever comparing payloads.
        timed: List[Tuple[float, int, str, Any]] = []
        tseq = 0

        def push_timed(at: float, kind: str, payload: Any) -> None:
            nonlocal tseq
            tseq += 1
            heapq.heappush(timed, (at, tseq, kind, payload))

        breakers: Dict[str, Any] = {}
        poison_budget: Dict[int, int] = {}
        down_since: Dict[int, float] = {}
        episode_victims: Dict[int, Set[str]] = {}
        episode_sizes: Dict[int, int] = {}
        mttr_records: List[Dict[str, Any]] = []

        if chaos is not None:
            for index, rule in enumerate(chaos.poison):
                poison_budget[index] = rule.max_poisoned
            for index, churn in enumerate(chaos.node_churn):
                push_timed(churn.down_at, "node_down", index)
                if churn.duration is not None:
                    push_timed(churn.down_at + churn.duration, "node_up",
                               churn.node_id)
            for flap in chaos.slot_flaps:
                push_timed(flap.at, "flap_start", flap.node_id)
                push_timed(flap.at + flap.duration, "flap_end", flap.node_id)

        def on_breaker_transition(at: float, tenant: str, old: str,
                                  new: str) -> None:
            if new == "open":
                breaker_opens_counter.inc()
            if monitor is not None:
                monitor.on_breaker(at, tenant, old, new)

        def get_breaker(tenant: str):
            breaker = breakers.get(tenant)
            if breaker is None:
                breaker = CircuitBreaker(tenant, protection, streams,
                                         on_transition=on_breaker_transition)
                breakers[tenant] = breaker
            return breaker

        def available_nodes() -> List[int]:
            return [index for index, node in enumerate(nodes)
                    if node.grantable]

        def up_slots() -> int:
            return sum(1 for node in nodes
                       if node.down == 0 and node.flaps == 0)

        def resolve_victim(job_id: str) -> None:
            """A churn victim reached a terminal state; close episodes."""
            for index in list(episode_victims):
                victims = episode_victims[index]
                if job_id not in victims:
                    continue
                victims.discard(job_id)
                if victims:
                    continue
                churn = chaos.node_churn[index]
                mttr = now - churn.down_at
                mttr_hist.observe(mttr)
                mttr_records.append({
                    "node": churn.node_id,
                    "down_at": churn.down_at,
                    "recovered_at": now,
                    "mttr_s": mttr,
                    "victims": episode_sizes[index],
                })
                del episode_victims[index]

        def shed(job: ServiceJob, reason: str) -> None:
            nonlocal rejected, makespan
            job.rejected = True
            job.shed_reason = reason
            rejected += 1
            rejected_counter.inc()
            if shed_counter is not None:
                shed_counter.inc()
            shed_counts[reason] = shed_counts.get(reason, 0) + 1
            makespan = max(makespan, now)
            if chaos is not None:
                resolve_victim(job.job_id)

        def admit(job: ServiceJob, kind: str) -> bool:
            """The single admission path: arrivals and retries."""
            nonlocal seq
            if protection is not None:
                if protection.breaker_failures is not None:
                    breaker = get_breaker(job.tenant)
                    if not breaker.allow(job.job_id):
                        shed(job, "breaker")
                        return False
                if (protection.max_queue is not None
                        and len(queued) >= protection.max_queue):
                    shed(job, "queue")
                    return False
                if protection.max_wait is not None:
                    work = sum(entry[2].runtime * entry[2].slots
                               for entry in queued)
                    if work / max(1, up_slots()) > protection.max_wait:
                        shed(job, "wait")
                        return False
            seq += 1
            queued.push(job.arrival, seq, job)
            if (kind == "arrival" and protection is not None
                    and protection.deadline is not None):
                push_timed(job.arrival + protection.deadline, "deadline", job)
            return True

        def abort(job: ServiceJob, reason: str) -> None:
            nonlocal aborted, makespan, slo_violations
            job.aborted = True
            job.abort_reason = reason
            aborted += 1
            aborted_counter.inc()
            makespan = max(makespan, now)
            if reason == "deadline":
                slo_violations += 1
                slo_counter.inc()
            resolve_victim(job.job_id)

        def breaker_failure(job: ServiceJob) -> None:
            job.failures += 1
            if protection is None or protection.breaker_failures is None:
                return
            probe_at = get_breaker(job.tenant).record_failure(now, job.job_id)
            if probe_at is not None:
                push_timed(probe_at, "probe", job.tenant)

        def release(job: ServiceJob) -> None:
            """Take ``job`` off the running set and free its nodes."""
            del running[job.job_id]
            usage[job.tenant] -= job.slots
            for index in job.node_ids:
                nodes[index].job = None
            job.node_ids = ()

        def kill_attempt(job: ServiceJob) -> None:
            """Tear down a running attempt without deciding the job's fate."""
            nonlocal wasted
            lost = now - run_start[job.job_id]
            job.served += lost
            wasted += lost * job._attempt_slots
            release(job)
            job.start = None

        def retry_or_abort(job: ServiceJob, reason: str) -> None:
            nonlocal retried, pending_retries
            job.retries += 1
            if job.retries > protection.max_retries:
                abort(job, reason)
                return
            delay = backoff_delay(protection, streams, job.job_id,
                                  job.retries)
            retried += 1
            retried_counter.inc()
            backoff_hist.observe(delay)
            pending_retries += 1
            push_timed(now + delay, "retry", job)

        def grant_slots(job: ServiceJob) -> int:
            if (protection is None or protection.degrade_queue is None
                    or len(queued) < protection.degrade_queue):
                return job.slots
            degraded = job.degraded_slots()
            return degraded if degraded is not None else job.slots

        def start_job(job: ServiceJob, node_ids: List[int],
                      granted: int) -> None:
            nonlocal seq, degraded_grants
            if monitor is not None:
                monitor.on_grant(now, job, node_ids, nodes)
            job.start = now
            job._generation += 1
            runtime = job.runtime_for(granted)
            outcome = "ok"
            duration = runtime
            if chaos is not None and chaos.poison:
                match = match_poison(chaos, job.tenant)
                if match is not None:
                    rule_index, rule = match
                    if (poison_budget.get(rule_index, 0) > 0
                            and poison_roll(streams, job.job_id,
                                            job.retries) < rule.probability):
                        poison_budget[rule_index] -= 1
                        outcome = "poison"
                        duration = runtime * rule.at_fraction
            job.granted = granted
            job._attempt_slots = granted
            job._attempt_runtime = runtime
            if granted < job.slots:
                degraded_grants += 1
                job.degraded += 1
            running[job.job_id] = job
            usage[job.tenant] = usage.get(job.tenant, 0) + job.slots
            run_start[job.job_id] = now
            for index in node_ids:
                nodes[index].job = job.job_id
            job.node_ids = tuple(node_ids)
            seq += 1
            heapq.heappush(
                completions,
                (now + duration, seq, job.job_id, job._generation, outcome),
            )

        def dispatch() -> None:
            # Only start_job changes node state in here, and it takes the
            # lowest free ids, so one scan of the nodes serves the loop.
            free_ids = available_nodes()
            while queued:
                job = queued.head(usage)[2]
                granted = grant_slots(job)
                if granted > len(free_ids):
                    break  # head-of-line blocking: never skip ahead
                queued.remove(job)
                start_job(job, free_ids[:granted], granted)
                del free_ids[:granted]

        def handle_timed(kind: str, payload: Any) -> None:
            nonlocal pending_retries, node_downtime
            if kind == "node_down":
                churn = chaos.node_churn[payload]
                node = nodes[churn.node_id]
                node.down += 1
                if node.down == 1:
                    down_since[churn.node_id] = now
                    job_id = node.job
                    if job_id is not None:
                        job = running[job_id]
                        kill_attempt(job)
                        episode_victims.setdefault(payload, set()).add(job_id)
                        episode_sizes[payload] = (
                            episode_sizes.get(payload, 0) + 1
                        )
                        retry_or_abort(job, "node-loss")
            elif kind == "node_up":
                node = nodes[payload]
                node.down -= 1
                if node.down == 0:
                    node_downtime += now - down_since.pop(payload)
            elif kind == "flap_start":
                nodes[payload].flaps += 1
            elif kind == "flap_end":
                nodes[payload].flaps -= 1
            elif kind == "retry":
                pending_retries -= 1
                job = payload
                if not (job.aborted or job.rejected or job.end is not None):
                    admit(job, "retry")
            elif kind == "deadline":
                job = payload
                if job.aborted or job.rejected or job.end is not None:
                    return
                if job.job_id in running:
                    kill_attempt(job)
                else:
                    queued.remove(job)
                breaker_failure(job)
                abort(job, "deadline")
            elif kind == "probe":
                breaker = breakers.get(payload)
                if breaker is not None:
                    breaker.half_open(now)

        while (next_arrival < len(arrivals) or completions or queued
               or pending_retries):
            times: List[float] = []
            if next_arrival < len(arrivals):
                times.append(arrivals[next_arrival].arrival)
            if completions:
                times.append(completions[0][0])
            if timed:
                times.append(timed[0][0])
            if not times:
                if chaos is not None:
                    # Permanent capacity loss: the queue can never drain.
                    for _arrival, _seq, job in queued.ordered():
                        queued.remove(job)
                        abort(job, "capacity")
                    continue
                # Only queued jobs remain but nothing is running and no
                # arrivals are due: the head does not fit even in an idle
                # cluster, which the slot check above already excluded.
                raise AssertionError("scheduler stalled with queued jobs")
            now = min(times)

            # 1. completions at `now` free their slots first.
            while completions and completions[0][0] <= now:
                _end, _seq, job_id, generation, outcome = heapq.heappop(
                    completions)
                job = running.get(job_id)
                if job is None or job._generation != generation:
                    continue  # stale event from a killed attempt
                if outcome == "poison":
                    kill_attempt(job)
                    breaker_failure(job)
                    retry_or_abort(job, "poison")
                    continue
                release(job)
                job.end = now
                job.served += job._attempt_runtime
                completed += 1
                makespan = max(makespan, now)
                slot_seconds[job.tenant] = (
                    slot_seconds.get(job.tenant, 0.0)
                    + job._attempt_runtime * job._attempt_slots
                )
                completed_counter.inc()
                latency_hist.observe(job.latency)
                delay_hist.observe(job.queue_delay)
                metrics.histogram(
                    tenant_metric(job.tenant, "job_latency")
                ).observe(job.latency)
                metrics.histogram(
                    tenant_metric(job.tenant, "queue_delay")
                ).observe(job.queue_delay)
                if protection is not None:
                    if job.tenant in breakers:
                        breakers[job.tenant].record_success(now, job_id)
                    if (protection.slo_latency is not None
                            and job.latency > protection.slo_latency):
                        slo_violations += 1
                        slo_counter.inc()
                if chaos is not None:
                    resolve_victim(job_id)

            # 2. timed chaos events at `now` (node churn, flaps, retries,
            #    deadlines, breaker probes); empty heap chaos-free.
            while timed and timed[0][0] <= now:
                _at, _tseq, kind, payload = heapq.heappop(timed)
                handle_timed(kind, payload)

            # 3. arrivals at `now` pass admission and enqueue.
            while (next_arrival < len(arrivals)
                   and arrivals[next_arrival].arrival <= now):
                job = arrivals[next_arrival]
                next_arrival += 1
                submitted_counter.inc()
                admit(job, "arrival")

            # 4. fill freed slots under the discipline.
            dispatch()

        for node_id, since in down_since.items():
            node_downtime += max(0.0, makespan - since)

        total = len(arrivals)
        if monitor is not None:
            monitor.on_final(now, submitted=total, completed=completed,
                             rejected=rejected, aborted=aborted)
        return ServiceResult(
            jobs=list(arrivals),
            discipline=self.discipline,
            total_slots=self.total_slots,
            makespan=makespan,
            submitted=total,
            completed=completed,
            rejected=rejected,
            slot_seconds=slot_seconds,
            wasted_slot_seconds=wasted,
            registry=metrics,
            aborted=aborted,
            retried=retried,
            shed=dict(sorted(shed_counts.items())),
            slo_violations=slo_violations,
            degraded_grants=degraded_grants,
            mttr=mttr_records,
            breakers={
                tenant: {
                    "state": breaker.state,
                    "opens": breaker.opens,
                    "transitions": [[at, state_name]
                                    for at, state_name in breaker.transitions],
                }
                for tenant, breaker in sorted(breakers.items())
            },
            node_downtime=node_downtime,
        )


def jobs_from_arrivals(
    arrivals: Sequence["JobArrival"],
    runtimes: Dict[str, float],
    degraded_runtimes: Optional[Dict[str, Tuple[int, float]]] = None,
) -> List[ServiceJob]:
    """Bind expanded arrivals to oracle runtimes, keyed by ``job_id``.

    ``degraded_runtimes`` optionally maps job ids to ``(slots, runtime)``
    at the shrunken grant size used under graceful degradation.
    """
    jobs: List[ServiceJob] = []
    for arrival in arrivals:
        if arrival.job_id not in runtimes:
            raise KeyError(f"no runtime for job {arrival.job_id}")
        by_slots: Dict[int, float] = {}
        if degraded_runtimes and arrival.job_id in degraded_runtimes:
            slots, runtime = degraded_runtimes[arrival.job_id]
            by_slots[slots] = runtime
        jobs.append(
            ServiceJob(
                job_id=arrival.job_id,
                tenant=arrival.tenant,
                workload=arrival.template.label,
                arrival=arrival.time,
                slots=arrival.slots,
                runtime=runtimes[arrival.job_id],
                tenant_weight=arrival.tenant_weight,
                runtime_by_slots=by_slots,
            )
        )
    return jobs
