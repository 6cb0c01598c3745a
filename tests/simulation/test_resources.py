"""Tests for fair-share resources and the processor-sharing CPU."""

import pytest

from repro.simulation import CpuResource, FairShareResource, SimulationError, Simulator
from repro.simulation.resources import LatencyChannel


class Ends(dict):
    """Completion hook that maps each finished job to its finish time."""

    def __init__(self, sim):
        super().__init__()
        self.sim = sim

    def __call__(self, job):
        self[job] = self.sim.now


class TestFairShareResource:
    def test_single_job_gets_full_capacity(self):
        sim = Simulator()
        res = FairShareResource(sim, "disk", capacity=100.0)
        ends = Ends(sim)
        job = res.submit(500.0, "", ends)
        sim.run()
        assert ends[job] == pytest.approx(5.0)

    def test_two_equal_jobs_share_capacity(self):
        sim = Simulator()
        res = FairShareResource(sim, "disk", capacity=100.0)
        ends = Ends(sim)
        a = res.submit(500.0, "", ends)
        b = res.submit(500.0, "", ends)
        sim.run()
        assert ends[a] == pytest.approx(10.0)
        assert ends[b] == pytest.approx(10.0)

    def test_late_arrival_slows_first_job(self):
        sim = Simulator()
        res = FairShareResource(sim, "disk", capacity=100.0)
        ends = Ends(sim)
        first = res.submit(1000.0, "", ends)  # alone: 10s
        sim.run(until=5.0)
        res.submit(1000.0, "", ends)
        sim.run()
        # first has 500 left, now at 50/s -> finishes at t=15
        assert ends[first] == pytest.approx(15.0)

    def test_zero_work_completes_immediately(self):
        sim = Simulator()
        res = FairShareResource(sim, "disk", capacity=10.0)
        ends = Ends(sim)
        job = res.submit(0.0, "", ends)
        assert ends == {job: 0.0}  # inside submit, before any dispatch

    def test_negative_work_rejected(self):
        sim = Simulator()
        res = FairShareResource(sim, "disk", capacity=10.0)
        with pytest.raises(SimulationError):
            res.submit(-1.0, "", Ends(sim))

    def test_nonfinite_work_rejected(self):
        sim = Simulator()
        res = FairShareResource(sim, "disk", capacity=10.0)
        with pytest.raises(SimulationError):
            res.submit(float("inf"), "", Ends(sim))

    def test_capacity_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            FairShareResource(sim, "disk", capacity=0.0)

    def test_stats_accumulate_work_and_busy_time(self):
        sim = Simulator()
        res = FairShareResource(sim, "disk", capacity=100.0)
        res.submit(200.0, "read", Ends(sim))
        res.submit(300.0, "write", Ends(sim))
        sim.run()
        assert res.stats.work_done == pytest.approx(500.0)
        assert res.stats.jobs_completed == 2
        assert res.stats.work_by_tag["read"] == pytest.approx(200.0)
        assert res.stats.work_by_tag["write"] == pytest.approx(300.0)
        # 200 then 300: share until the smaller one finishes at t=4
        # (each at 50/s -> 200 done at t=4), remainder 100 at t=5.
        assert res.stats.busy_time == pytest.approx(5.0)

    def test_concurrency_integral_tracks_queue_depth(self):
        sim = Simulator()
        res = FairShareResource(sim, "disk", capacity=100.0)
        res.submit(200.0, "", Ends(sim))
        res.submit(200.0, "", Ends(sim))
        sim.run()
        # Both jobs active for the full 4 seconds -> integral 8.
        assert res.stats.concurrency_integral == pytest.approx(8.0)

    def test_many_staggered_jobs_conserve_work(self):
        sim = Simulator()
        res = FairShareResource(sim, "disk", capacity=37.0)
        ends = Ends(sim)
        total = 0.0
        for i in range(20):
            work = 10.0 + 3.0 * i
            total += work
            sim.call_at(float(i) * 0.37,
                        lambda w=work: res.submit(w, "", ends))
        sim.run()
        assert res.stats.work_done == pytest.approx(total, rel=1e-6)
        assert res.stats.jobs_completed == 20
        assert len(ends) == 20
        assert res.active_jobs == 0


class TestNotifyRatesChanged:
    def test_completion_hook_runs_once_per_job(self):
        sim = Simulator()
        res = FairShareResource(sim, "r", capacity=2.0)
        calls = []
        jobs = []
        for index in range(6):
            sim.call_in(0.5 * index,
                        lambda w=1.0 + index: jobs.append(
                            res.submit(w, "", calls.append)))
        sim.run()
        res.notify_rates_changed()  # re-planning an idle resource fires nothing
        sim.run()
        assert len(calls) == len(jobs) == 6
        assert set(calls) == set(jobs)
        assert res.active_jobs == 0

    def test_rate_change_replans_in_flight_jobs(self):
        sim = Simulator()
        resource = FairShareResource(sim, "dev", capacity=1.0)
        ends = Ends(sim)
        job = resource.submit(10.0, "", ends)  # t=10 at capacity 1.0

        def speed_up():
            resource.sync()  # settle work at the old rate first
            resource.capacity = 5.0
            resource.notify_rates_changed()

        sim.call_in(5.0, speed_up)
        sim.run()
        # 5 work units done by t=5, remaining 5 at rate 5 -> one more second.
        assert ends == {job: pytest.approx(6.0)}


class TestCpuResource:
    def test_undersubscribed_jobs_run_at_full_speed(self):
        sim = Simulator()
        cpu = CpuResource(sim, "cpu", cores=4)
        ends = Ends(sim)
        jobs = [cpu.submit(2.0, "", ends) for _ in range(3)]
        sim.run()
        assert sim.now == pytest.approx(2.0)
        assert list(ends) == jobs

    def test_oversubscribed_jobs_timeshare(self):
        sim = Simulator()
        cpu = CpuResource(sim, "cpu", cores=2)
        for _ in range(4):
            cpu.submit(1.0, "", Ends(sim))
        sim.run()
        # 4 threads on 2 cores run at 0.5x -> 2 seconds.
        assert sim.now == pytest.approx(2.0)

    def test_speed_factor_scales_rate(self):
        sim = Simulator()
        cpu = CpuResource(sim, "cpu", cores=1, speed_factor=2.0)
        cpu.submit(4.0, "", Ends(sim))
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_cores_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            CpuResource(sim, "cpu", cores=0)

    def test_occupancy_counts_occupied_cores(self):
        sim = Simulator()
        cpu = CpuResource(sim, "cpu", cores=4)
        cpu.submit(2.0, "", Ends(sim))
        cpu.submit(2.0, "", Ends(sim))
        sim.run()
        # 2 jobs on 4 cores for 2s -> 4 core-seconds occupied.
        assert cpu.stats.occupancy_integral == pytest.approx(4.0)
        assert cpu.utilization(0.0, elapsed=2.0) == pytest.approx(0.5)

    def test_occupancy_saturates_at_core_count(self):
        sim = Simulator()
        cpu = CpuResource(sim, "cpu", cores=2)
        for _ in range(8):
            cpu.submit(1.0, "", Ends(sim))
        sim.run()
        assert sim.now == pytest.approx(4.0)
        assert cpu.utilization(0.0, elapsed=4.0) == pytest.approx(1.0)


class TestLatencyChannel:
    def test_message_delivered_after_latency(self):
        sim = Simulator()
        channel = LatencyChannel(sim, latency=0.5)
        inbox = []
        channel.send(lambda m: inbox.append((sim.now, m)), "hello")
        assert inbox == []
        sim.run()
        assert inbox == [(0.5, "hello")]

    def test_messages_counted(self):
        sim = Simulator()
        channel = LatencyChannel(sim, latency=0.0)
        channel.send(lambda m: None, 1)
        channel.send(lambda m: None, 2)
        assert channel.messages_sent == 2

    def test_negative_latency_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            LatencyChannel(sim, latency=-0.1)


class TestRandomStreams:
    def test_streams_are_reproducible(self):
        from repro.simulation import RandomStreams

        a = RandomStreams(7).stream("disk")
        b = RandomStreams(7).stream("disk")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent_of_creation_order(self):
        from repro.simulation import RandomStreams

        one = RandomStreams(7)
        one.stream("net")
        value_one = one.stream("disk").random()
        two = RandomStreams(7)
        value_two = two.stream("disk").random()
        assert value_one == value_two

    def test_lognormal_factor_median_near_one(self):
        from repro.simulation import RandomStreams

        streams = RandomStreams(3)
        draws = sorted(
            streams.lognormal_factor("node", sigma=0.2) for _ in range(400)
        )
        median = draws[len(draws) // 2]
        assert 0.9 < median < 1.1

    def test_sigma_zero_is_exactly_one(self):
        from repro.simulation import RandomStreams

        assert RandomStreams(1).lognormal_factor("x", 0.0) == 1.0

    def test_negative_sigma_rejected(self):
        from repro.simulation import RandomStreams

        with pytest.raises(ValueError):
            RandomStreams(1).lognormal_factor("x", -0.5)

    def test_fork_produces_distinct_streams(self):
        from repro.simulation import RandomStreams

        parent = RandomStreams(7)
        child = parent.fork("rep-1")
        assert child.stream("disk").random() != parent.stream("disk").random()
