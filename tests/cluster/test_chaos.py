"""Chaos-era scheduler behaviour: churn, retries, breakers, protection.

These tests drive :class:`ClusterScheduler` with synthetic jobs and
hand-built :class:`ClusterFaults` (no inner engine, no report layer), so
every resilience mechanism is pinned at the event-loop level: node-loss
kill/requeue/backoff, conservation across terminal states under every
discipline, deadline aborts, admission shedding (with and without
chaos), the circuit-breaker state machine, and graceful degradation.
"""

import pytest

from repro.cluster.chaos import CircuitBreaker, backoff_delay
from repro.cluster.scheduler import ClusterScheduler, ServiceJob
from repro.faults.plan import (
    ClusterFaults,
    NodeChurn,
    ProtectionConfig,
    SlotFlap,
    TenantPoison,
)
from repro.simulation.randomness import RandomStreams


def make_jobs(count, tenants=("a", "b"), slots=1, runtime=10.0, gap=1.0):
    return [
        ServiceJob(
            job_id=f"j{index:04d}",
            tenant=tenants[index % len(tenants)],
            workload="synthetic",
            arrival=index * gap,
            slots=slots,
            runtime=runtime,
        )
        for index in range(count)
    ]


def run(jobs, total_slots=4, discipline="fifo", **kwargs):
    return ClusterScheduler(total_slots=total_slots, discipline=discipline,
                            **kwargs).run(jobs)


class TestNodeChurn:
    @pytest.mark.parametrize("discipline", ["fifo", "fair", "wfair"])
    def test_conservation_under_churn(self, discipline):
        chaos = ClusterFaults(
            node_churn=(NodeChurn(node_id=0, down_at=5.0, duration=30.0),
                        NodeChurn(node_id=1, down_at=12.0, duration=20.0)),
            protection=ProtectionConfig(max_retries=3),
        )
        result = run(make_jobs(30, gap=2.0), discipline=discipline,
                     chaos=chaos, chaos_seed=11)
        assert result.submitted == 30
        assert (result.completed + result.rejected + result.aborted
                == result.submitted)
        for job in result.jobs:
            terminal = [job.end is not None, job.rejected, job.aborted]
            assert sum(terminal) == 1, job.job_id

    def test_victim_requeues_with_backoff_and_recovers(self):
        chaos = ClusterFaults(
            node_churn=(NodeChurn(node_id=0, down_at=5.0, duration=10.0),),
            protection=ProtectionConfig(max_retries=3, backoff_base=2.0,
                                        backoff_jitter=0.0),
        )
        job = ServiceJob(job_id="j0", tenant="a", workload="synthetic",
                         arrival=0.0, slots=1, runtime=20.0)
        result = run([job], total_slots=1, chaos=chaos, chaos_seed=1)
        assert result.completed == 1
        assert result.retried == 1
        assert job.retries == 1
        # Killed at t=5 (5s wasted), retried at t=7 (base backoff 2s, no
        # jitter) but the node is down until t=15, so the retry queues and
        # the full 20s re-run starts at 15.
        assert job.end == pytest.approx(35.0)
        assert result.wasted_slot_seconds == pytest.approx(5.0)
        assert result.mttr and result.mttr[0]["mttr_s"] == pytest.approx(30.0)
        assert result.node_downtime == pytest.approx(10.0)

    def test_retry_budget_exhaustion_aborts(self):
        chaos = ClusterFaults(
            node_churn=(NodeChurn(node_id=0, down_at=1.0, duration=None),),
            protection=ProtectionConfig(max_retries=0),
        )
        job = ServiceJob(job_id="j0", tenant="a", workload="synthetic",
                         arrival=0.0, slots=1, runtime=20.0)
        result = run([job], total_slots=1, chaos=chaos, chaos_seed=1)
        assert result.aborted == 1
        assert job.aborted and job.abort_reason == "node-loss"

    def test_permanent_loss_aborts_queued_jobs(self):
        # The only node never comes back: queued work cannot drain, so the
        # scheduler aborts it (reason "capacity") instead of stalling.
        chaos = ClusterFaults(
            node_churn=(NodeChurn(node_id=0, down_at=1.0, duration=None),),
            protection=ProtectionConfig(max_retries=1),
        )
        result = run(make_jobs(3, runtime=20.0), total_slots=1, chaos=chaos,
                     chaos_seed=1)
        assert result.completed == 0
        assert result.aborted == 3
        assert result.submitted == result.aborted

    def test_chaos_plan_must_fit_cluster(self):
        chaos = ClusterFaults(
            node_churn=(NodeChurn(node_id=9, down_at=1.0),))
        with pytest.raises(ValueError, match="node 9"):
            ClusterScheduler(4, chaos=chaos)


class TestSlotFlaps:
    def test_flap_drains_without_killing(self):
        # Node 0 flaps while the job runs: the job finishes undisturbed,
        # but the next job cannot be granted the flapped node.
        chaos = ClusterFaults(
            slot_flaps=(SlotFlap(node_id=0, at=2.0, duration=20.0),))
        jobs = make_jobs(2, runtime=10.0, gap=11.0)
        result = run(jobs, total_slots=1, chaos=chaos, chaos_seed=1)
        assert result.completed == 2
        assert result.retried == 0
        first, second = result.jobs
        assert first.end == pytest.approx(10.0)
        # Second arrives at 11 but the slot is drained until 22.
        assert second.start == pytest.approx(22.0)


class TestDeadlines:
    def test_queued_job_aborts_at_deadline_without_starting(self):
        # One slot, three simultaneous arrivals, one shared deadline at
        # t=5.  FIFO runs "b" (killed at its deadline); "l1" and "l2" are
        # still queued when the same instant expires their deadlines, so
        # they abort without ever receiving service.
        chaos = ClusterFaults(
            protection=ProtectionConfig(deadline=5.0, max_retries=0))
        blocker = ServiceJob(job_id="b", tenant="a", workload="synthetic",
                             arrival=0.0, slots=1, runtime=50.0)
        late1 = ServiceJob(job_id="l1", tenant="a", workload="synthetic",
                           arrival=0.0, slots=1, runtime=50.0)
        late2 = ServiceJob(job_id="l2", tenant="a", workload="synthetic",
                           arrival=0.0, slots=1, runtime=50.0)
        result = run([blocker, late1, late2], total_slots=1, chaos=chaos,
                     chaos_seed=1)
        for job in (late1, late2):
            assert job.aborted and job.abort_reason == "deadline"
            assert job.start is None and job.served == 0.0
        assert blocker.served == pytest.approx(5.0)
        assert result.slo_violations == 3
        assert result.aborted == 3

    def test_running_job_killed_at_deadline(self):
        chaos = ClusterFaults(protection=ProtectionConfig(deadline=5.0))
        job = ServiceJob(job_id="j0", tenant="a", workload="synthetic",
                         arrival=0.0, slots=1, runtime=50.0)
        result = run([job], total_slots=1, chaos=chaos, chaos_seed=1)
        assert job.aborted
        assert result.wasted_slot_seconds == pytest.approx(5.0)


class TestOverloadProtection:
    def test_max_queue_sheds_with_reason(self):
        chaos = ClusterFaults(
            protection=ProtectionConfig(max_queue=2))
        result = run(make_jobs(10, gap=0.1, runtime=50.0), total_slots=1,
                     chaos=chaos, chaos_seed=1)
        assert result.shed.get("queue", 0) > 0
        assert sum(result.shed.values()) == result.rejected

    def test_max_wait_sheds_on_estimated_wait(self):
        chaos = ClusterFaults(
            protection=ProtectionConfig(max_wait=30.0))
        result = run(make_jobs(10, gap=0.1, runtime=50.0), total_slots=1,
                     chaos=chaos, chaos_seed=1)
        assert result.shed.get("wait", 0) > 0

    def test_max_wait_applies_without_chaos(self):
        result = run(make_jobs(10, gap=0.1, runtime=50.0), total_slots=1,
                     protection=ProtectionConfig(max_wait=30.0))
        assert result.shed.get("wait", 0) == result.rejected > 0
        assert result.submitted == result.completed + result.rejected

    def test_explicit_protection_replaces_the_plans(self):
        chaos = ClusterFaults(protection=ProtectionConfig(max_queue=0))
        result = run(make_jobs(10, gap=0.1, runtime=50.0), total_slots=1,
                     chaos=chaos, chaos_seed=1,
                     protection=ProtectionConfig(max_wait=30.0))
        assert result.shed == {"wait": result.rejected}

    def test_degradation_shrinks_grants_under_pressure(self):
        chaos = ClusterFaults(
            protection=ProtectionConfig(degrade_queue=2, degrade_factor=0.5))
        jobs = [
            ServiceJob(job_id=f"j{index:02d}", tenant="a",
                       workload="synthetic", arrival=index * 0.1, slots=2,
                       runtime=10.0, runtime_by_slots={1: 18.0})
            for index in range(8)
        ]
        result = run(jobs, total_slots=2, chaos=chaos, chaos_seed=1)
        assert result.completed == 8
        assert result.degraded_grants > 0
        degraded = [job for job in jobs if job.degraded]
        assert degraded and all(job.granted == 1 for job in degraded)


class TestPoisonAndBreaker:
    def test_poison_failures_trip_and_recover_breaker(self):
        chaos = ClusterFaults(
            poison=(TenantPoison(tenant="a", probability=1.0,
                                 max_poisoned=4),),
            protection=ProtectionConfig(max_retries=0, breaker_failures=2,
                                        breaker_cooldown=5.0,
                                        breaker_jitter=0.0),
        )
        result = run(make_jobs(12, tenants=("a",), gap=4.0, runtime=2.0),
                     total_slots=1, chaos=chaos, chaos_seed=3)
        breaker = result.breakers["a"]
        states = [state for _at, state in breaker["transitions"]]
        assert states[:2] == ["open", "half_open"]
        assert breaker["opens"] >= 1
        assert breaker["state"] == "closed"
        assert result.shed.get("breaker", 0) > 0
        assert (result.completed + result.rejected + result.aborted
                == result.submitted)

    def test_breaker_state_machine_unit(self):
        protection = ProtectionConfig(breaker_failures=2,
                                      breaker_cooldown=10.0,
                                      breaker_jitter=0.0)
        breaker = CircuitBreaker("t", protection, RandomStreams(0))
        assert breaker.allow("j1")
        assert breaker.record_failure(1.0, "j1") is None
        probe_at = breaker.record_failure(2.0, "j2")
        assert breaker.state == "open"
        assert probe_at == pytest.approx(12.0)
        assert not breaker.allow("j3")
        breaker.half_open(probe_at)
        assert breaker.state == "half_open"
        assert breaker.allow("j4")       # the probe
        assert not breaker.allow("j5")   # only one probe
        breaker.record_success(13.0, "j4")
        assert breaker.state == "closed"

    def test_breaker_reopens_on_probe_failure(self):
        protection = ProtectionConfig(breaker_failures=1,
                                      breaker_cooldown=10.0,
                                      breaker_jitter=0.0)
        breaker = CircuitBreaker("t", protection, RandomStreams(0))
        assert breaker.record_failure(0.0, "j1") is not None
        breaker.half_open(10.0)
        assert breaker.allow("j2")
        assert breaker.record_failure(11.0, "j2") is not None
        assert breaker.state == "open"
        assert breaker.opens == 2


class TestBackoffStreams:
    def test_backoff_doubles_and_caps(self):
        protection = ProtectionConfig(backoff_base=2.0, backoff_cap=10.0,
                                      backoff_jitter=0.0)
        streams = RandomStreams(0)
        delays = [backoff_delay(protection, streams, "j", attempt)
                  for attempt in (1, 2, 3, 4, 5)]
        assert delays == [2.0, 4.0, 8.0, 10.0, 10.0]

    def test_jitter_is_keyed_per_job_and_attempt(self):
        protection = ProtectionConfig(backoff_base=2.0, backoff_jitter=0.5)
        streams = RandomStreams(7)
        a1 = backoff_delay(protection, streams, "ja", 1)
        b1 = backoff_delay(protection, streams, "jb", 1)
        a2 = backoff_delay(protection, streams, "ja", 2)
        assert a1 != b1
        # Re-derived streams reproduce the same draws in any order.
        again = RandomStreams(7)
        assert backoff_delay(protection, again, "ja", 2) == a2
        assert backoff_delay(protection, again, "ja", 1) == a1


class TestChaosDeterminism:
    def test_same_seed_same_schedule(self):
        chaos = ClusterFaults(
            node_churn=(NodeChurn(node_id=0, down_at=5.0, duration=20.0),),
            poison=(TenantPoison(tenant="*", probability=0.3),),
            protection=ProtectionConfig(max_retries=2, breaker_failures=3),
        )

        def snapshot():
            result = run(make_jobs(20, gap=1.5), chaos=chaos, chaos_seed=5)
            return [(job.job_id, job.start, job.end, job.retries,
                     job.rejected, job.aborted) for job in result.jobs]

        assert snapshot() == snapshot()

    def test_chaos_free_matches_pre_chaos_scheduler(self):
        plain = run(make_jobs(25, gap=0.5))
        again = run(make_jobs(25, gap=0.5), chaos=None)
        assert ([(j.job_id, j.start, j.end) for j in plain.jobs]
                == [(j.job_id, j.start, j.end) for j in again.jobs])
        assert plain.wasted_slot_seconds == 0.0
        assert plain.shed == {}
        assert plain.breakers == {}
