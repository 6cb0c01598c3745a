"""Differential tests: the indexed scheduler queue vs the naive list scan.

:class:`NaiveQueue` is the queue :class:`ClusterScheduler` used before it
kept per-tenant heaps and incremental slot usage: a plain list of
``(arrival, seq, job)`` entries, scanned on every pick.  The indexed
``_JobQueue`` must agree with it exactly -- same heads, same length, same
iteration order -- under every discipline, and whole scheduler runs must
produce identical results with either queue plugged in.
"""

import dataclasses
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import scheduler as scheduler_module
from repro.cluster.scheduler import (
    DISCIPLINES,
    ClusterScheduler,
    ServiceJob,
    _JobQueue,
)
from repro.faults.plan import (
    ClusterFaults,
    NodeChurn,
    ProtectionConfig,
    SlotFlap,
    TenantPoison,
)

Entry = Tuple[float, int, ServiceJob]


class NaiveQueue:
    """Reference queue: a list in submission order, scanned per decision."""

    def __init__(self, discipline: str) -> None:
        self.discipline = discipline
        self.queued: List[Entry] = []

    def __len__(self) -> int:
        return len(self.queued)

    def __iter__(self):
        return iter(self.queued)

    def push(self, arrival: float, seq: int, job: ServiceJob) -> None:
        self.queued.append((arrival, seq, job))

    def remove(self, job: ServiceJob) -> bool:
        if not any(entry[2] is job for entry in self.queued):
            return False
        self.queued[:] = [entry for entry in self.queued
                          if entry[2] is not job]
        return True

    def head(self, usage: Dict[str, float]) -> Entry:
        queued = self.queued
        if self.discipline == "fifo":
            return min(queued, key=lambda entry: (entry[0], entry[1]))
        best: Optional[Tuple[float, str]] = None
        for _arrival, _seq, job in queued:
            weight = job.tenant_weight if self.discipline == "wfair" else 1.0
            share = usage.get(job.tenant, 0.0) / weight
            key = (share, job.tenant)
            if best is None or key < best:
                best = key
        assert best is not None
        tenant = best[1]
        return min(
            (entry for entry in queued if entry[2].tenant == tenant),
            key=lambda entry: (entry[0], entry[1]),
        )

    def ordered(self) -> List[Entry]:
        return sorted(self.queued)


class RebuildingQueue(NaiveQueue):
    """The naive queue, pricing shares from usage rebuilt off the jobs.

    Like the old scheduler, it sums ``job.slots`` over running jobs (those
    holding nodes) instead of trusting the incrementally maintained
    ``usage``, and checks that the two agree at every decision.
    """

    def __init__(self, discipline: str) -> None:
        super().__init__(discipline)
        self.seen: Dict[str, ServiceJob] = {}

    def push(self, arrival: float, seq: int, job: ServiceJob) -> None:
        self.seen[job.job_id] = job
        super().push(arrival, seq, job)

    def head(self, usage: Dict[str, float]) -> Entry:
        rebuilt: Dict[str, float] = {}
        for job in self.seen.values():
            if job.node_ids:
                rebuilt[job.tenant] = rebuilt.get(job.tenant, 0.0) + job.slots
        assert rebuilt == {tenant: slots for tenant, slots in usage.items()
                           if slots}
        return super().head(rebuilt)


def triples(entries) -> List[Tuple[float, int, str]]:
    return [(arrival, seq, job.job_id) for arrival, seq, job in entries]


# -- queue-level differential ---------------------------------------------

TENANTS = 4
#: Distinct per-tenant weights, so ``wfair`` and ``fair`` order differently.
WEIGHTS = (0.5, 1.0, 2.0, 3.0)

operations = st.lists(
    st.one_of(
        # a new job arrives: (tenant, arrival in half-seconds)
        st.tuples(st.just("arrive"), st.integers(0, TENANTS - 1),
                  st.integers(0, 20)),
        # a removed job comes back with its original (earlier) arrival
        st.tuples(st.just("requeue"), st.integers(0, 1000)),
        # a tenant's running-slot usage changes
        st.tuples(st.just("usage"), st.integers(0, TENANTS - 1),
                  st.integers(0, 8)),
        # a deadline removes some job, queued or not
        st.tuples(st.just("deadline"), st.integers(0, 1000)),
        # the discipline picks a head, and maybe dispatches it
        st.tuples(st.just("pick"), st.booleans()),
    ),
    min_size=20, max_size=150,
)


class TestQueueDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        discipline=st.sampled_from(DISCIPLINES),
        weights=st.permutations(WEIGHTS),
        initial=st.lists(st.integers(0, 8), min_size=TENANTS,
                         max_size=TENANTS),
        ops=operations,
    )
    def test_indexed_queue_matches_naive(self, discipline, weights, initial,
                                         ops):
        fast = _JobQueue(discipline)
        naive = NaiveQueue(discipline)
        jobs: List[ServiceJob] = []
        out: List[ServiceJob] = []     # removed jobs, eligible to requeue
        usage = {f"t{tenant}": slots for tenant, slots in enumerate(initial)}
        seq = 0

        def push(job):
            nonlocal seq
            seq += 1
            fast.push(job.arrival, seq, job)
            naive.push(job.arrival, seq, job)

        for op in ops:
            kind = op[0]
            if kind == "arrive":
                tenant = op[1]
                job = ServiceJob(job_id=f"j{len(jobs)}", tenant=f"t{tenant}",
                                 workload="synthetic", arrival=op[2] / 2,
                                 slots=1, runtime=1.0,
                                 tenant_weight=weights[tenant])
                jobs.append(job)
                push(job)
            elif kind == "requeue" and out:
                push(out.pop(op[1] % len(out)))
            elif kind == "usage":
                usage[f"t{op[1]}"] = op[2]
            elif kind == "deadline" and jobs:
                job = jobs[op[1] % len(jobs)]
                removed = fast.remove(job)
                assert removed == naive.remove(job)
                if removed:
                    out.append(job)
            elif kind == "pick" and naive:
                picked = fast.head(usage)
                expected = naive.head(usage)
                assert picked[:2] == expected[:2]
                assert picked[2] is expected[2]
                if op[1]:
                    assert fast.remove(picked[2])
                    assert naive.remove(picked[2])
                    out.append(picked[2])
            assert len(fast) == len(naive)
            assert bool(fast) == bool(naive)
            assert triples(fast) == triples(naive)
            assert triples(fast.ordered()) == triples(naive.ordered())


# -- end-to-end differential ----------------------------------------------


@st.composite
def scenarios(draw):
    tenants = draw(st.integers(1, TENANTS))
    weights = draw(st.permutations(WEIGHTS))[:tenants]
    total_slots = draw(st.integers(2, 6))
    specs = draw(st.lists(
        st.tuples(
            st.integers(0, tenants - 1),          # tenant
            st.integers(0, 120),                  # arrival, half-seconds
            st.integers(1, min(3, total_slots)),  # slots
            st.integers(1, 40),                   # runtime, half-seconds
        ),
        min_size=8, max_size=40,
    ))
    return {
        "discipline": draw(st.sampled_from(DISCIPLINES)),
        "total_slots": total_slots,
        "weights": weights,
        "specs": specs,
        "protection": draw(st.sampled_from([
            None,
            ProtectionConfig(max_wait=8.0),
            ProtectionConfig(max_wait=30.0),
            ProtectionConfig(max_queue=3),
            ProtectionConfig(max_queue=6, max_wait=30.0),
        ])),
    }


@st.composite
def chaos_plans(draw, total_slots, tenants):
    nodes = st.integers(0, total_slots - 1)
    churn = draw(st.lists(st.builds(
        NodeChurn, node_id=nodes,
        down_at=st.integers(0, 60).map(float),
        duration=st.one_of(st.none(), st.integers(5, 40).map(float)),
    ), max_size=3))
    flaps = draw(st.lists(st.builds(
        SlotFlap, node_id=nodes,
        at=st.integers(0, 60).map(float),
        duration=st.integers(5, 40).map(float),
    ), max_size=3))
    poison = draw(st.lists(st.builds(
        TenantPoison,
        tenant=st.sampled_from(["*"] + [f"t{i}" for i in range(tenants)]),
        probability=st.sampled_from([0.3, 0.7, 1.0]),
        max_poisoned=st.integers(0, 5),
        at_fraction=st.sampled_from([0.25, 0.5, 1.0]),
    ), max_size=1))
    maybe = lambda strategy: st.one_of(st.none(), strategy)  # noqa: E731
    protection = ProtectionConfig(
        max_retries=draw(st.integers(0, 3)),
        deadline=draw(maybe(st.integers(20, 100).map(float))),
        slo_latency=draw(maybe(st.just(30.0))),
        max_queue=draw(maybe(st.integers(0, 8))),
        max_wait=draw(maybe(st.integers(5, 50).map(float))),
        breaker_failures=draw(maybe(st.integers(1, 3))),
        degrade_queue=draw(maybe(st.integers(1, 4))),
    )
    return ClusterFaults(node_churn=churn, slot_flaps=flaps, poison=poison,
                         protection=protection)


def build_jobs(scenario) -> List[ServiceJob]:
    jobs = []
    for index, (tenant, arrival, slots, runtime) in enumerate(
            scenario["specs"]):
        by_slots = {1: runtime * 0.75} if slots > 1 else {}
        jobs.append(ServiceJob(
            job_id=f"j{index:03d}", tenant=f"t{tenant}", workload="synthetic",
            arrival=arrival / 2, slots=slots, runtime=runtime / 2,
            tenant_weight=scenario["weights"][tenant],
            runtime_by_slots=by_slots,
        ))
    return jobs


def run_scenario(scenario, chaos, queue_cls):
    """One scheduler run with ``queue_cls`` as its queue, as plain data.

    The scenario's admission limits apply to chaos-free runs; a chaos
    plan brings its own protection."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler_module, "_JobQueue", queue_cls)
        result = ClusterScheduler(
            scenario["total_slots"], scenario["discipline"],
            chaos=chaos, chaos_seed=11,
            protection=None if chaos is not None else scenario["protection"],
        ).run(build_jobs(scenario))
    fields = {field.name: getattr(result, field.name)
              for field in dataclasses.fields(result)
              if field.name not in ("jobs", "registry")}
    fields["jobs"] = [dataclasses.asdict(job) for job in result.jobs]
    fields["registry"] = result.registry.snapshot()
    return fields


class TestSchedulerDifferential:
    @settings(max_examples=150, deadline=None)
    @given(scenario=scenarios())
    def test_chaos_free_runs_match_naive(self, scenario):
        indexed = run_scenario(scenario, None, _JobQueue)
        naive = run_scenario(scenario, None, RebuildingQueue)
        assert indexed == naive

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), scenario=scenarios())
    def test_chaos_runs_match_naive(self, data, scenario):
        chaos = data.draw(chaos_plans(scenario["total_slots"],
                                      len(scenario["weights"])))
        indexed = run_scenario(scenario, chaos, _JobQueue)
        naive = run_scenario(scenario, chaos, RebuildingQueue)
        assert indexed == naive

    def test_reference_is_plugged_in(self):
        """Guard against a vacuous differential: the monkeypatched queue
        really is the one the scheduler builds."""
        built = []

        class Spy(RebuildingQueue):
            def __init__(self, discipline):
                super().__init__(discipline)
                built.append(discipline)

        scenario = {"discipline": "wfair", "total_slots": 2,
                    "weights": [1.0, 2.0],
                    "specs": [(0, 0, 1, 4), (1, 0, 2, 4)],
                    "protection": None}
        run_scenario(scenario, None, Spy)
        assert built == ["wfair"]
