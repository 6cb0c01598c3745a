"""Cluster scheduler: FIFO/FAIR/WFAIR invariants on synthetic job streams.

These tests drive :class:`ClusterScheduler` directly with hand-built
:class:`ServiceJob` lists (no inner engine runs), so the queueing logic is
exercised in isolation: conservation of submitted jobs, starvation
freedom, discipline ordering, admission limits, and fairness accounting.
"""

import pytest

from repro.cluster.scheduler import (
    ClusterScheduler,
    ServiceJob,
    jobs_from_arrivals,
)
from repro.faults.plan import ProtectionConfig
from repro.workloads.arrivals import ArrivalPlanError


def make_jobs(count, tenants=("a", "b"), slots=1, runtime=10.0, gap=1.0,
              weights=None):
    """``count`` jobs round-robined over ``tenants``, arriving every ``gap``."""
    jobs = []
    for index in range(count):
        tenant = tenants[index % len(tenants)]
        jobs.append(
            ServiceJob(
                job_id=f"j{index:04d}",
                tenant=tenant,
                workload="synthetic",
                arrival=index * gap,
                slots=slots,
                runtime=runtime,
                tenant_weight=(weights or {}).get(tenant, 1.0),
            )
        )
    return jobs


def run(jobs, total_slots=4, discipline="fifo", **kwargs):
    return ClusterScheduler(total_slots=total_slots, discipline=discipline,
                            **kwargs).run(jobs)


class TestConservation:
    """Submitted jobs are never lost: submitted == completed + rejected."""

    @pytest.mark.parametrize("discipline", ["fifo", "fair", "wfair"])
    def test_50_jobs_all_complete(self, discipline):
        result = run(make_jobs(50), discipline=discipline)
        assert result.submitted == 50
        assert result.completed == 50
        assert result.rejected == 0
        assert all(job.end is not None for job in result.jobs)

    @pytest.mark.parametrize("discipline", ["fifo", "fair"])
    def test_conservation_with_admission_control(self, discipline):
        result = run(make_jobs(50, gap=0.1), discipline=discipline,
                     protection=ProtectionConfig(max_queue=3))
        assert result.submitted == 50
        assert result.completed + result.rejected == 50
        assert result.rejected > 0  # gap 0.1 floods a 4-slot cluster
        for job in result.jobs:
            assert (job.end is not None) != job.rejected

    def test_service_accounting_matches_runtimes(self):
        result = run(make_jobs(50))
        total = sum(job.runtime * job.slots
                    for job in result.jobs if job.end is not None)
        assert sum(result.slot_seconds.values()) == pytest.approx(total)


class TestNoStarvation:
    @pytest.mark.parametrize("discipline", ["fifo", "fair"])
    def test_wide_job_is_not_starved_by_narrow_stream(self, discipline):
        """Head-of-line blocking: a 4-slot job queued behind a continuous
        1-slot stream must still run (a greedy backfiller would starve it
        forever)."""
        narrow = make_jobs(48, tenants=("small",), slots=1, runtime=10.0,
                           gap=2.0)
        wide = ServiceJob(job_id="wide", tenant="big", workload="synthetic",
                          arrival=1.0, slots=4, runtime=5.0)
        result = run(narrow + [wide], total_slots=4, discipline=discipline)
        wide_job = next(j for j in result.jobs if j.job_id == "wide")
        assert wide_job.end is not None
        # It must not be pushed to the very end of the schedule.
        assert wide_job.end < result.makespan

    @pytest.mark.parametrize("discipline", ["fifo", "fair", "wfair"])
    def test_every_job_starts_within_bounded_delay(self, discipline):
        jobs = make_jobs(50, runtime=8.0, gap=1.0)
        result = run(jobs, discipline=discipline)
        worst = max(job.queue_delay for job in result.jobs)
        # 50 jobs x 8s over 4 slots arriving 1/s: backlog is bounded by
        # total work, so no job can wait longer than the whole schedule.
        assert worst <= result.makespan


class TestDisciplines:
    def test_fifo_starts_in_arrival_order(self):
        result = run(make_jobs(50), discipline="fifo")
        starts = [job.start for job in
                  sorted(result.jobs, key=lambda j: j.arrival)]
        assert starts == sorted(starts)

    def test_fair_beats_fifo_for_light_tenant_behind_burst(self):
        """Tenant b's single job arrives behind a's burst: FAIR serves it
        as soon as slots free; FIFO makes it drain the whole burst."""

        def jobs():
            burst = make_jobs(20, tenants=("a",), runtime=10.0, gap=0.0)
            burst.append(
                ServiceJob(job_id="late", tenant="b", workload="synthetic",
                           arrival=0.5, slots=1, runtime=10.0)
            )
            return burst

        fifo = run(jobs(), total_slots=2, discipline="fifo")
        fair = run(jobs(), total_slots=2, discipline="fair")
        fifo_late = next(j for j in fifo.jobs if j.job_id == "late")
        fair_late = next(j for j in fair.jobs if j.job_id == "late")
        assert fair_late.end < fifo_late.end

    def test_wfair_gives_heavy_tenant_more_slots(self):
        jobs = make_jobs(50, tenants=("heavy", "light"), runtime=10.0,
                         gap=0.0, weights={"heavy": 3.0, "light": 1.0})
        result = run(jobs, total_slots=4, discipline="wfair")
        heavy = [j for j in result.jobs if j.tenant == "heavy"]
        light = [j for j in result.jobs if j.tenant == "light"]
        assert (sum(j.queue_delay for j in heavy) / len(heavy)
                < sum(j.queue_delay for j in light) / len(light))

    def test_fair_fairness_index_beats_fifo_under_asymmetric_load(self):
        """One tenant floods, one trickles: FAIR splits service more evenly
        over the contended window."""
        def jobs():
            flood = make_jobs(30, tenants=("a",), runtime=10.0, gap=0.0)
            flood.extend(
                ServiceJob(job_id=f"t{i}", tenant="b", workload="synthetic",
                           arrival=float(i), slots=1, runtime=10.0)
                for i in range(10)
            )
            return flood

        fair = run(jobs(), total_slots=2, discipline="fair")
        fifo = run(jobs(), total_slots=2, discipline="fifo")
        # FIFO serves the flood first, so tenant b's jobs all finish late;
        # FAIR interleaves.  Average b latency shows the difference.
        fair_b = [j.latency for j in fair.jobs if j.tenant == "b"]
        fifo_b = [j.latency for j in fifo.jobs if j.tenant == "b"]
        assert sum(fair_b) < sum(fifo_b)


class TestDeterminism:
    @pytest.mark.parametrize("discipline", ["fifo", "fair", "wfair"])
    def test_rerun_is_identical(self, discipline):
        def snapshot():
            result = run(make_jobs(50, gap=0.5), discipline=discipline)
            return [(j.job_id, j.start, j.end) for j in result.jobs]

        assert snapshot() == snapshot()


class TestHooks:
    """Admission limits given to the scheduler as a ``protection``."""

    def test_admission_limit_zero_rejects_everything(self):
        result = run(make_jobs(10, gap=0.0), total_slots=1,
                     protection=ProtectionConfig(max_queue=0))
        assert result.completed == 0
        assert result.rejected == 10
        assert all(job.start is None for job in result.jobs)


class TestValidationErrors:
    def test_oversized_job_is_rejected_upfront(self):
        job = ServiceJob(job_id="x", tenant="a", workload="synthetic",
                         arrival=0.0, slots=8, runtime=1.0)
        with pytest.raises(ArrivalPlanError, match="slots"):
            run([job], total_slots=4)

    def test_unknown_discipline(self):
        with pytest.raises(ValueError, match="discipline"):
            ClusterScheduler(total_slots=4, discipline="lifo")

    def test_jobs_from_arrivals_requires_runtimes(self):
        with pytest.raises(KeyError):
            jobs_from_arrivals(
                [type("A", (), {"job_id": "j0"})()], {}
            )

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_non_positive_tenant_weight_rejected(self, weight):
        # A zero weight used to divide by zero inside the wfair pick.
        jobs = make_jobs(4, weights={"b": weight})
        with pytest.raises(ValueError, match="positive and finite"):
            run(jobs, discipline="wfair")

    @pytest.mark.parametrize("weight", [float("inf"), float("nan")])
    def test_non_finite_tenant_weight_rejected(self, weight):
        jobs = make_jobs(4, weights={"a": weight})
        with pytest.raises(ValueError, match="positive and finite"):
            run(jobs, discipline="wfair")

    def test_tenant_weight_must_be_uniform_per_tenant(self):
        jobs = make_jobs(4, weights={"a": 2.0})
        jobs[2].tenant_weight = 3.0          # a second "a" job, other weight
        with pytest.raises(ValueError, match="tenant 'a' has weight 3.0"):
            run(jobs, discipline="wfair")
