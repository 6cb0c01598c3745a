"""Property-based tests on core simulation invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation import CpuResource, FairShareResource, Simulator
from repro.storage.device import HDD_PROFILE, SSD_PROFILE, StorageDevice


def _ignore(_done):
    """Completion hook of work whose end the property does not watch."""


class TestWorkConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        works=st.lists(st.floats(min_value=0.1, max_value=1e4),
                       min_size=1, max_size=25),
        capacity=st.floats(min_value=0.5, max_value=1e3),
    )
    def test_all_work_is_served(self, works, capacity):
        sim = Simulator()
        resource = FairShareResource(sim, "r", capacity=capacity)
        finished = []
        jobs = [resource.submit(work, "", finished.append) for work in works]
        sim.run()
        assert sorted(map(id, finished)) == sorted(map(id, jobs))
        assert resource.stats.work_done == pytest.approx(sum(works), rel=1e-6)
        assert resource.active_jobs == 0

    @settings(max_examples=40, deadline=None)
    @given(
        works=st.lists(st.floats(min_value=0.1, max_value=1e4),
                       min_size=1, max_size=25),
        offsets=st.lists(st.floats(min_value=0.0, max_value=100.0),
                         min_size=25, max_size=25),
        capacity=st.floats(min_value=0.5, max_value=1e3),
    )
    def test_staggered_arrivals_conserve_work(self, works, offsets, capacity):
        sim = Simulator()
        resource = FairShareResource(sim, "r", capacity=capacity)
        for work, offset in zip(works, offsets):
            sim.call_at(offset, lambda w=work: resource.submit(w, "", _ignore))
        sim.run()
        assert resource.stats.work_done == pytest.approx(sum(works), rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        works=st.lists(st.floats(min_value=0.1, max_value=100.0),
                       min_size=2, max_size=10),
    )
    def test_finish_time_bounded_by_serial_and_parallel(self, works):
        sim = Simulator()
        resource = FairShareResource(sim, "r", capacity=1.0)
        for work in works:
            resource.submit(work, "", _ignore)
        sim.run()
        # Total time equals total work at unit capacity (work conservation);
        # no job can finish after that, none before its own service time.
        assert sim.now == pytest.approx(sum(works), rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        cores=st.integers(min_value=1, max_value=32),
        tasks=st.integers(min_value=1, max_value=64),
    )
    def test_cpu_runtime_matches_processor_sharing(self, cores, tasks):
        sim = Simulator()
        cpu = CpuResource(sim, "cpu", cores=cores)
        for _ in range(tasks):
            cpu.submit(1.0, "", _ignore)
        sim.run()
        # All tasks are identical, so they finish together at
        # max(1, tasks/cores) seconds.
        assert sim.now == pytest.approx(max(1.0, tasks / cores), rel=1e-9)


class TestDeviceInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        concurrency=st.integers(min_value=1, max_value=512),
        op=st.sampled_from(["read", "write"]),
    )
    def test_efficiency_bounded(self, concurrency, op):
        for profile in (HDD_PROFILE, SSD_PROFILE):
            e = profile.efficiency(op, concurrency)
            assert profile.min_efficiency <= e <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(op=st.sampled_from(["read", "write"]))
    def test_efficiency_monotonically_decreasing(self, op):
        for profile in (HDD_PROFILE, SSD_PROFILE):
            values = [profile.efficiency(op, k) for k in range(1, 200)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.floats(min_value=1e3, max_value=1e8),
                       min_size=1, max_size=12),
        ops=st.lists(st.sampled_from(["read", "write"]),
                     min_size=12, max_size=12),
    )
    def test_device_conserves_bytes(self, sizes, ops):
        sim = Simulator()
        disk = StorageDevice(sim, "d", HDD_PROFILE)
        for size, op in zip(sizes, ops):
            disk.request(size, op, _ignore)
        sim.run()
        disk.sync()
        assert disk.total_bytes == pytest.approx(sum(sizes), rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(streams=st.integers(min_value=1, max_value=64))
    def test_hdd_aggregate_never_exceeds_peak(self, streams):
        sim = Simulator()
        disk = StorageDevice(sim, "d", HDD_PROFILE)
        total = 512e6
        for _ in range(streams):
            disk.request(total / streams, "read", _ignore)
        sim.run()
        aggregate = total / sim.now
        assert aggregate <= HDD_PROFILE.read_rate * 1.001
