"""Kernel fast-path edge cases: call_in, zero-delay storms, run_until,
and the scalar uniform_rate twin of rates().

The optimized paths must be *observably identical* to the general ones --
event-by-event ordering, float-by-float accounting.
"""

import pytest

from repro.network.fabric import NetworkLink
from repro.simulation import (
    CpuResource,
    FairShareResource,
    SimulationError,
    Simulator,
)
from repro.storage.device import HDD_PROFILE, StorageDevice


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

    def test_ties_with_event_firings_break_by_scheduling_order(self):
        """Deferred calls and event firings for the same instant run in the
        order they were queued: an event's firing is itself one entry."""
        sim = Simulator()
        order = []
        first, fourth = sim.event(), sim.event()
        first.add_callback(lambda _e: order.append("event-first"))
        fourth.add_callback(lambda _e: order.append("event-fourth"))
        first.succeed()
        sim.call_in(0.0, order.append, "call-in-second")
        sim.call_in(0.0, order.append, "call-in-third")
        fourth.succeed()
        sim.run()
        assert order == [
            "event-first", "call-in-second", "call-in-third", "event-fourth"
        ]

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
        sim.event().succeed()
        assert sim.events_scheduled == before + 3


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

    def test_succeed_storm_drains_without_time_advancing(self):
        sim = Simulator()
        fired = []
        for index in range(500):
            event = sim.event()
            event.add_callback(lambda _e, i=index: fired.append(i))
            event.succeed(index)
        sim.run()
        assert fired == list(range(500))
        assert sim.now == 0.0


class TestRunUntil:
    def test_run_until_already_triggered_event_is_noop(self):
        """run_until on a triggered event must not drain the queue."""
        sim = Simulator()
        later = []
        sim.call_in(10.0, later.append, "future")
        target = sim.event()
        target.succeed("done")
        sim.run_until(target)
        assert sim.now == 0.0
        assert later == []  # the t=10 work is still pending
        sim.run()
        assert later == ["future"]

    def test_stops_at_event_without_draining(self):
        sim = Simulator()
        fired = []
        sim.call_in(100.0, fired.append, "late")
        target = sim.event()
        sim.call_in(2.0, target.succeed)
        sim.run_until(target)
        assert target.triggered
        assert sim.now == pytest.approx(2.0)
        assert fired == []  # the t=100 entry stays queued
        sim.run()
        assert fired == ["late"]
        assert sim.now == pytest.approx(100.0)

    def test_run_until_processed_event_is_noop(self):
        sim = Simulator()
        target = sim.event()
        sim.call_in(1.0, target.succeed)
        sim.run()
        assert target.processed
        sim.call_in(5.0, lambda: None)
        sim.run_until(target)
        assert sim.now == 1.0  # queue not drained past the trigger


class TestUniformRate:
    def test_base_uniform_rate_matches_rates_exactly(self):
        sim = Simulator()
        res = FairShareResource(sim, "r", capacity=37.0)
        for _ in range(5):
            res.submit(10.0)
        per_job = res.rates(res._jobs)
        uniform = res.uniform_rate(len(res._jobs))
        assert set(per_job.values()) == {uniform}

    def test_cpu_uniform_rate_matches_rates_exactly(self):
        sim = Simulator()
        cpu = CpuResource(sim, "cpu", cores=4, speed_factor=0.9)
        for _ in range(7):
            cpu.submit(1.0)
        rates = cpu.rates(cpu._jobs)
        uniform = cpu.uniform_rate(len(cpu._jobs))
        assert set(rates.values()) == {uniform}

    def test_device_uniform_rate_single_op(self):
        sim = Simulator()
        disk = StorageDevice(sim, "disk", HDD_PROFILE)
        for _ in range(3):
            disk.submit(1000.0, tag="read", op="read")
        rates = disk.rates(disk._jobs)
        uniform = disk.uniform_rate(len(disk._jobs))
        assert uniform is not None
        assert set(rates.values()) == {uniform}

    def test_device_uniform_rate_mixed_ops_falls_back(self):
        sim = Simulator()
        disk = StorageDevice(sim, "disk", HDD_PROFILE)
        disk.submit(1000.0, tag="read", op="read")
        disk.submit(1000.0, tag="write", op="write")
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
        fast = res.submit(10.0, w=4.0)
        slow = res.submit(10.0, w=1.0)
        fast.event.add_callback(lambda _e: done.setdefault("fast", sim.now))
        slow.event.add_callback(lambda _e: done.setdefault("slow", sim.now))
        sim.run()
        # 4:1 weights -> the heavy job finishes first despite equal work.
        # (An inherited equal-share scalar would finish them together.)
        assert done["fast"] < done["slow"]

    def test_fair_share_completion_times_unchanged(self):
        """Equal-share service through the scalar path: three equal jobs on
        capacity 3 finish together at t=work."""
        sim = Simulator()
        res = FairShareResource(sim, "r", capacity=3.0)
        jobs = [res.submit(9.0) for _ in range(3)]
        sim.run()
        assert all(job.event.processed for job in jobs)
        assert sim.now == pytest.approx(9.0)


class TestSlotsAudit:
    def test_event_hierarchy_defines_slots_everywhere(self):
        """No Event subclass may silently re-introduce a per-instance
        __dict__."""
        from repro.simulation import core

        classes = [core.Event]
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
