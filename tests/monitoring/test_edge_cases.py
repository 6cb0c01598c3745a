"""Edge cases of the monitoring layer: degenerate intervals and idle gaps."""

import math
import signal
import time

import pytest

from repro.engine.metrics import IntervalRecord
from repro.monitoring import MonitoringService
from tests.engine.conftest import make_context

MB = 1024.0**2


def make_interval(**overrides):
    fields = dict(
        executor_id=0,
        stage_id=0,
        threads=4,
        start_time=0.0,
        end_time=2.0,
        epoll_wait=1.0,
        io_bytes=8 * MB,
    )
    fields.update(overrides)
    return IntervalRecord(**fields)


class TestIntervalCongestion:
    def test_nominal_value(self):
        interval = make_interval()
        expected = (1.0 / 4) / (8 * MB / 2.0)
        assert interval.congestion == expected

    def test_zero_duration_interval_has_zero_throughput(self):
        interval = make_interval(end_time=0.0)
        assert interval.duration == 0.0
        assert interval.throughput == 0.0

    def test_zero_duration_with_wait_is_infinite_congestion(self):
        interval = make_interval(end_time=0.0, epoll_wait=0.5)
        assert math.isinf(interval.congestion)

    def test_no_bytes_with_wait_is_infinite_congestion(self):
        interval = make_interval(io_bytes=0.0, epoll_wait=0.5)
        assert math.isinf(interval.congestion)

    def test_no_bytes_no_wait_is_zero_congestion(self):
        # A fully idle interval is "uncongested", not pathological.
        interval = make_interval(io_bytes=0.0, epoll_wait=0.0)
        assert interval.congestion == 0.0

    def test_zero_threads_does_not_divide_by_zero(self):
        interval = make_interval(threads=0)
        assert math.isfinite(interval.congestion)

    def test_negative_duration_treated_as_empty(self):
        # Clock skew cannot happen in the simulator, but the record type
        # must not blow up on a malformed row read back from a log.
        interval = make_interval(end_time=-1.0, epoll_wait=0.0, io_bytes=0.0)
        assert interval.throughput == 0.0
        assert interval.congestion == 0.0


class TestSamplerEdges:
    def test_zero_elapsed_window_produces_no_sample(self):
        ctx = make_context(num_nodes=1, cores=2)
        service = MonitoringService(ctx, interval=1.0)
        service._active_stage_id = 0
        service._reset_snapshots()
        before = len(ctx.recorder.samples)
        # Same simulated instant: elapsed == 0 must be skipped, not divide.
        service._sample_all()
        service._sample_all()
        assert len(ctx.recorder.samples) == before

    def test_tick_with_no_active_stage_stops_loop(self):
        ctx = make_context(num_nodes=1, cores=2)
        service = MonitoringService(ctx, interval=1.0)
        service._loop_running = True
        service._active_stage_id = None
        before = len(ctx.recorder.samples)
        service._tick()
        assert service._loop_running is False
        assert len(ctx.recorder.samples) == before

    def test_samples_between_stages_are_not_recorded(self):
        ctx = make_context(num_nodes=1, cores=2)
        ctx.register_synthetic_file("/in", 32 * MB, num_records=1e4)
        ctx.text_file("/in", 4).count()
        # Every recorded sample belongs to a stage; the idle gap after the
        # job produced none.
        assert ctx.recorder.samples
        assert all(s.stage_id is not None for s in ctx.recorder.samples)

    def test_restart_after_gap_collects_for_second_stage(self):
        ctx = make_context(num_nodes=1, cores=2)
        ctx.register_synthetic_file("/a", 32 * MB, num_records=1e4)
        ctx.text_file("/a", 4).count()
        ctx.register_synthetic_file("/b", 32 * MB, num_records=1e4)
        ctx.text_file("/b", 4).count()
        stage_ids = {s.stage_id for s in ctx.recorder.samples}
        assert len(stage_ids) >= 2

    def test_stalled_job_raises_instead_of_ticking_forever(self,
                                                           monkeypatch):
        """A launch that never reaches its executor leaves the stage with
        nothing queued but the sampler's tick: the tick must not re-arm,
        so the job reports its deadlock instead of spinning the clock."""
        ctx = make_context(num_nodes=1, cores=2)
        ctx.register_synthetic_file("/in", 32 * MB, num_records=1e4)
        monkeypatch.setattr(ctx.executors[0], "launch_task",
                            lambda message: None)

        def spinning(_signum, _frame):
            raise TimeoutError("the stalled job is still ticking")

        previous = signal.signal(signal.SIGALRM, spinning)
        signal.alarm(30)
        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="deadlocked"):
                ctx.text_file("/in", 4).count()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 5.0
        assert ctx.sim.now < 2.0
