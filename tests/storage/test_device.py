"""Tests for the HDD/SSD device models."""

import pytest

from repro.simulation import Simulator
from repro.storage import HDD_PROFILE, SSD_PROFILE, DeviceProfile, StorageDevice
from repro.storage.device import MiB


def _ignore(_done):
    """Completion hook of a request whose end the test does not watch."""


def run_request(sim, device, size, op):
    done = {}
    device.request(size, op, lambda _size: done.setdefault("t", sim.now))
    sim.run()
    return done["t"]


class TestDeviceProfile:
    def test_efficiency_is_one_for_single_stream(self):
        assert HDD_PROFILE.efficiency("read", 1) == 1.0
        assert SSD_PROFILE.efficiency("write", 1) == 1.0

    def test_hdd_efficiency_decays_with_concurrency(self):
        values = [HDD_PROFILE.efficiency("read", k) for k in (1, 2, 4, 8, 16, 32)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 0.4  # collapses to roughly a third at 32 streams

    def test_ssd_read_efficiency_nearly_flat(self):
        assert SSD_PROFILE.efficiency("read", 32) > 0.9

    def test_ssd_write_decays_more_than_read(self):
        assert SSD_PROFILE.efficiency("write", 32) < SSD_PROFILE.efficiency("read", 32)

    def test_ssd_write_rate_below_read_rate(self):
        assert SSD_PROFILE.write_rate < SSD_PROFILE.read_rate

    def test_ssd_much_lower_latency_than_hdd(self):
        assert SSD_PROFILE.read_latency < HDD_PROFILE.read_latency / 10

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            HDD_PROFILE.rate("append")

    def test_bad_concurrency_rejected(self):
        with pytest.raises(ValueError):
            HDD_PROFILE.efficiency("read", 0)


class TestStorageDevice:
    def test_single_read_takes_latency_plus_transfer(self):
        sim = Simulator()
        disk = StorageDevice(sim, "d", HDD_PROFILE)
        t = run_request(sim, disk, 150.0 * MiB, "read")
        assert t == pytest.approx(HDD_PROFILE.read_latency + 1.0, rel=1e-6)

    def test_speed_factor_scales_both_latency_and_bandwidth(self):
        sim = Simulator()
        disk = StorageDevice(sim, "d", HDD_PROFILE, speed_factor=2.0)
        t = run_request(sim, disk, 150.0 * MiB, "read")
        assert t == pytest.approx(HDD_PROFILE.read_latency / 2 + 0.5, rel=1e-6)

    def test_concurrent_hdd_reads_lose_aggregate_bandwidth(self):
        def stage_time(streams):
            sim = Simulator()
            disk = StorageDevice(sim, "d", HDD_PROFILE)
            total = 1200.0 * MiB
            for _ in range(streams):
                disk.request(total / streams, "read", _ignore)
            sim.run()
            return sim.now

        # With zero CPU interleaving, more streams means more seek thrash:
        # the same total volume takes longer at higher concurrency.
        assert stage_time(2) < stage_time(8) < stage_time(32)

    def test_concurrent_ssd_reads_keep_aggregate_bandwidth(self):
        def stage_time(streams):
            sim = Simulator()
            disk = StorageDevice(sim, "d", SSD_PROFILE)
            total = 2000.0 * MiB
            for _ in range(streams):
                disk.request(total / streams, "read", _ignore)
            sim.run()
            return sim.now

        assert stage_time(32) < stage_time(2) * 1.1

    def test_read_write_byte_accounting(self):
        sim = Simulator()
        disk = StorageDevice(sim, "d", HDD_PROFILE)
        disk.request(10.0 * MiB, "read", _ignore)
        disk.request(5.0 * MiB, "write", _ignore)
        sim.run()
        assert disk.bytes_read == pytest.approx(10.0 * MiB)
        assert disk.bytes_written == pytest.approx(5.0 * MiB)
        assert disk.total_bytes == pytest.approx(15.0 * MiB)

    def test_zero_byte_request_completes(self):
        sim = Simulator()
        disk = StorageDevice(sim, "d", SSD_PROFILE)
        done = []
        disk.request(0.0, "write", done.append)
        sim.run()
        assert done == [0.0]

    def test_invalid_op_rejected(self):
        sim = Simulator()
        disk = StorageDevice(sim, "d", HDD_PROFILE)
        with pytest.raises(ValueError):
            disk.request(1.0, "scan", _ignore)

    def test_submit_rejects_unknown_op_alone(self):
        # Regression: a lone "trim" job used to be served at the write rate.
        sim = Simulator()
        disk = StorageDevice(sim, "d", HDD_PROFILE)
        with pytest.raises(ValueError, match="unknown op 'trim'"):
            disk.submit(4 * MiB, "trim", _ignore, op="trim")
        with pytest.raises(ValueError, match="unknown op 'trim'"):
            disk.submit(0.0, "", _ignore, op="trim")
        assert disk.active_jobs == 0
        assert disk._op_counts == {"read": 0, "write": 0}

    def test_submit_rejects_unknown_op_next_to_a_read(self):
        # Regression: next to a read, a "trim" job used to be served at the
        # read rate.  The read must be served exactly as if alone.
        def finish_time(extra_op):
            sim = Simulator()
            disk = StorageDevice(sim, "d", HDD_PROFILE)
            finished = []
            job = disk.submit(8 * MiB, "read", finished.append, op="read")
            if extra_op is not None:
                with pytest.raises(ValueError, match="unknown op"):
                    disk.submit(8 * MiB, extra_op, _ignore, op=extra_op)
            sim.run()
            assert finished == [job]
            assert disk.bytes_read == 8 * MiB
            return sim.now

        assert finish_time("trim") == finish_time(None)

    def test_negative_size_rejected(self):
        sim = Simulator()
        disk = StorageDevice(sim, "d", HDD_PROFILE)
        with pytest.raises(ValueError):
            disk.request(-1.0, "read", _ignore)

    def test_nonpositive_speed_factor_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            StorageDevice(sim, "d", HDD_PROFILE, speed_factor=0.0)

    def test_custom_profile_round_trip(self):
        profile = DeviceProfile(
            name="nvme",
            read_rate=3000.0 * MiB,
            write_rate=2000.0 * MiB,
            read_alpha=0.0,
            write_alpha=0.001,
            p=1.0,
            read_latency=0.00005,
            write_latency=0.0001,
        )
        assert profile.efficiency("read", 32) == 1.0
        assert profile.latency("write") == 0.0001
