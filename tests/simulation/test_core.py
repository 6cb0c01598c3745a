"""Tests for the discrete-event kernel."""

import pytest

from repro.simulation import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_in_advances_clock():
    sim = Simulator()
    sim.call_in(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0


def test_nan_times_are_rejected():
    # NaN compares False against everything, so a `delay < 0` check let it
    # into the heap, where it stamped events with ts NaN.
    nan = float("nan")
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_at(nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=nan)
    sim.run()
    assert sim.now == 0.0  # nothing was queued


def test_queued_counts_waiting_entries_excluding_the_running_one():
    sim = Simulator()
    seen = []
    sim.call_in(1.0, lambda: seen.append(sim.queued))
    sim.call_in(2.0, lambda: seen.append(sim.queued))
    assert sim.queued == 2
    sim.run()
    assert seen == [1, 0]
    assert sim.queued == 0


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.call_in(10.0, lambda: fired.append(sim.now))
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert fired == []
    sim.run()
    assert fired == [10.0]


def test_run_until_sets_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_run_until_in_the_past_is_error():
    sim = Simulator()
    sim.run(until=2.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_callback_exception_propagates_from_run():
    sim = Simulator()
    fired = []

    def boom():
        raise ValueError("unseen")

    sim.call_in(1.0, boom)
    sim.call_in(2.0, fired.append, "later")
    with pytest.raises(ValueError, match="unseen"):
        sim.run()
    assert sim.now == 1.0  # the clock stays at the failing entry
    assert fired == []  # later entries stay queued
    sim.run()
    assert fired == ["later"]


def test_zero_delay_call_from_a_callback_runs_after_earlier_entries():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_in(0.0, order.append, "continuation")

    sim.call_in(0.0, first)
    sim.call_in(0.0, order.append, "queued-second")
    sim.run()
    assert order == ["first", "queued-second", "continuation"]


def test_call_at_runs_callback_at_absolute_time():
    sim = Simulator()
    stamps = []
    assert sim.call_at(4.0, lambda: stamps.append(sim.now)) is None
    sim.run()
    assert stamps == [4.0]


def test_call_at_in_the_past_is_error():
    sim = Simulator()
    sim.call_in(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)
    sim.call_at(5.0, lambda: None)  # the present is fine


def test_deterministic_tie_breaking_by_insertion_order():
    sim = Simulator()
    order = []
    for label in ("a", "b", "c"):
        sim.call_in(1.0, order.append, label)
        sim.call_at(1.0, lambda upper=label.upper(): order.append(upper))
    sim.run()
    assert order == ["a", "A", "b", "B", "c", "C"]
