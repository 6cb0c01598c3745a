"""Kernel fast-path edge cases: call_in, zero-delay storms, the run loop's
``until``/``stop`` bounds, and the scalar uniform_rate twin of rates().

The optimized paths must be *observably identical* to the general ones --
event-by-event ordering, float-by-float accounting.
"""

import heapq

import pytest

from repro.network.fabric import NetworkLink
from repro.simulation import (
    CpuResource,
    FairShareResource,
    SimulationError,
    Simulator,
)
from repro.storage.device import HDD_PROFILE, StorageDevice


def _ignore(_job):
    """Completion hook of a job whose end the test does not watch."""


class TestCallIn:
    def test_runs_callback_with_args_after_delay(self):
        sim = Simulator()
        seen = []
        sim.call_in(2.5, seen.append, "hello")
        sim.run()
        assert seen == ["hello"]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_in(-0.1, lambda: None)

    def test_zero_delay_call_in_storm(self):
        """Thousands of zero-delay callbacks drain in order at t=0."""
        sim = Simulator()
        seen = []
        for index in range(2000):
            sim.call_in(0.0, seen.append, index)
        sim.run()
        assert seen == list(range(2000))
        assert sim.now == 0.0

    def test_call_in_can_chain_recursively(self):
        sim = Simulator()
        ticks = []

        def tick(n):
            ticks.append(sim.now)
            if n > 0:
                sim.call_in(1.0, tick, n - 1)

        sim.call_in(1.0, tick, 4)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_events_scheduled_counts_deferred_calls(self):
        sim = Simulator()
        before = sim.events_scheduled
        sim.call_in(0.0, lambda: None)
        sim.call_at(1.0, lambda: None)
        assert sim.events_scheduled == before + 2


class TestZeroDelayStorms:
    def test_zero_delay_chain_storm_preserves_order(self):
        """Continuations re-queueing themselves at zero delay interleave
        deterministically with freshly scheduled work at the same instant."""
        sim = Simulator()
        order = []

        def spinner(name, index, spins):
            order.append((name, index))
            if index + 1 < spins:
                sim.call_in(0.0, spinner, name, index + 1, spins)

        sim.call_in(0.0, spinner, "a", 0, 3)
        sim.call_in(0.0, spinner, "b", 0, 3)
        sim.run()
        assert sim.now == 0.0
        # Round-robin: both chains resume alternately at t=0.
        assert order == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)
        ]


    def test_zero_work_storm_completes_without_queue_entries(self):
        """Zero-work submissions finish inside submit, in submission order,
        without pushing a queue entry or advancing the clock."""
        sim = Simulator()
        res = FairShareResource(sim, "r", capacity=1.0)
        finished = []
        before = sim.events_scheduled
        jobs = [res.submit(0.0, str(i), finished.append) for i in range(500)]
        assert finished == jobs
        assert sim.events_scheduled == before
        assert res.active_jobs == 0
        sim.run()
        assert sim.now == 0.0

class TestRunLoop:
    """``run(until, stop)``, the kernel's one dispatch loop."""

    def test_stop_is_checked_before_each_dispatch(self):
        sim = Simulator()
        fired = []
        sim.call_in(1.0, fired.append, 1)
        sim.call_in(2.0, fired.append, 2)
        sim.call_in(100.0, fired.append, 100)
        assert sim.run(stop=lambda: len(fired) == 2) is False
        assert fired == [1, 2]
        assert sim.now == 2.0  # the clock stays at the last dispatch
        assert sim.run() is True
        assert fired == [1, 2, 100]

    def test_stop_already_true_dispatches_nothing(self):
        sim = Simulator()
        later = []
        sim.call_in(10.0, later.append, "future")
        assert sim.run(until=20.0, stop=lambda: True) is False
        assert sim.now == 0.0
        assert later == []  # the t=10 entry is still queued
        sim.run()
        assert later == ["future"]

    def test_stop_before_until_leaves_clock_and_later_entries(self):
        sim = Simulator()
        done = []
        sim.call_in(3.0, done.append, "job")
        sim.call_in(8.0, done.append, "timer")
        assert sim.run(until=10.0, stop=lambda: bool(done)) is False
        assert sim.now == 3.0
        assert done == ["job"]
        assert sim.run(until=10.0) is True
        assert done == ["job", "timer"]

    def test_until_reached_sets_clock_and_keeps_later_entries(self):
        sim = Simulator()
        fired = []
        sim.call_in(5.0, fired.append, 5)
        sim.call_in(20.0, fired.append, 20)
        assert sim.run(until=10.0, stop=lambda: False) is True
        assert sim.now == 10.0
        assert fired == [5]
        assert sim.run(until=20.0) is True  # an entry at `until` runs
        assert fired == [5, 20]

    def test_until_in_the_past_is_error(self):
        sim = Simulator()
        sim.call_in(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="past"):
            sim.run(until=1.0, stop=lambda: False)
        assert sim.now == 5.0

    def test_backwards_entry_raises_with_no_flag_set(self):
        sim = Simulator()
        sim.call_in(5.0, lambda: None)
        sim.run()
        # Corrupt the queue directly: an entry in the past.
        heapq.heappush(sim._queue, (1.0, 10_000, None, ()))
        with pytest.raises(SimulationError, match="backwards"):
            sim.run()
        assert sim.now == 5.0


class TestUniformRate:
    def test_base_uniform_rate_matches_rates_exactly(self):
        sim = Simulator()
        res = FairShareResource(sim, "r", capacity=37.0)
        for _ in range(5):
            res.submit(10.0, "", _ignore)
        per_job = res.rates(res._jobs)
        uniform = res.uniform_rate(len(res._jobs))
        assert set(per_job.values()) == {uniform}

    def test_cpu_uniform_rate_matches_rates_exactly(self):
        sim = Simulator()
        cpu = CpuResource(sim, "cpu", cores=4, speed_factor=0.9)
        for _ in range(7):
            cpu.submit(1.0, "", _ignore)
        rates = cpu.rates(cpu._jobs)
        uniform = cpu.uniform_rate(len(cpu._jobs))
        assert set(rates.values()) == {uniform}

    def test_device_uniform_rate_single_op(self):
        sim = Simulator()
        disk = StorageDevice(sim, "disk", HDD_PROFILE)
        for _ in range(3):
            disk.submit(1000.0, "read", _ignore, op="read")
        rates = disk.rates(disk._jobs)
        uniform = disk.uniform_rate(len(disk._jobs))
        assert uniform is not None
        assert set(rates.values()) == {uniform}

    def test_device_uniform_rate_mixed_ops_falls_back(self):
        sim = Simulator()
        disk = StorageDevice(sim, "disk", HDD_PROFILE)
        disk.submit(1000.0, "read", _ignore, op="read")
        disk.submit(1000.0, "write", _ignore, op="write")
        assert disk.uniform_rate(len(disk._jobs)) is None

    def test_network_link_inherits_uniform_curve(self):
        sim = Simulator()
        link = NetworkLink(sim, "nic", bandwidth=100.0)
        assert link._uniform_hook is True
        assert link.uniform_rate(4) == 25.0

    def test_custom_rates_override_disables_fast_path(self):
        """A subclass overriding rates() without uniform_rate() must not be
        mispriced by the inherited (equal-share) scalar."""

        class Weighted(FairShareResource):
            def rates(self, jobs):
                total = sum(job.attrs.get("w", 1.0) for job in jobs)
                return {
                    job: self.capacity * job.attrs.get("w", 1.0) / total
                    for job in jobs
                }

        sim = Simulator()
        res = Weighted(sim, "weighted", capacity=10.0)
        assert res._uniform_hook is False
        done = {}
        res.submit(10.0, "", lambda _j: done.setdefault("fast", sim.now),
                   w=4.0)
        res.submit(10.0, "", lambda _j: done.setdefault("slow", sim.now),
                   w=1.0)
        sim.run()
        # 4:1 weights -> the heavy job finishes first despite equal work.
        # (An inherited equal-share scalar would finish them together.)
        assert done["fast"] < done["slow"]

    def test_fair_share_completion_times_unchanged(self):
        """Equal-share service through the scalar path: three equal jobs on
        capacity 3 finish together at t=work."""
        sim = Simulator()
        res = FairShareResource(sim, "r", capacity=3.0)
        finished = []
        jobs = [res.submit(9.0, "", finished.append) for _ in range(3)]
        sim.run()
        assert finished == jobs
        assert sim.now == pytest.approx(9.0)


class TestSlotsAudit:
    def test_per_request_and_per_attempt_objects_define_slots(self):
        """Resource jobs (one per request) and task runs (one per attempt)
        may not silently re-introduce a per-instance __dict__, nor may any
        subclass of them."""
        from repro.engine.executor import _TaskRun
        from repro.simulation.resources import Job

        classes = [Job, _TaskRun]
        seen = set()
        while classes:
            cls = classes.pop()
            if cls in seen:
                continue
            seen.add(cls)
            assert "__slots__" in cls.__dict__, (
                f"{cls.__name__} is missing __slots__"
            )
            classes.extend(cls.__subclasses__())
        job = FairShareResource(Simulator(), "r").submit(1.0, "", _ignore)
        assert not hasattr(job, "__dict__")
