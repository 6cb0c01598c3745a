"""Tests for the discrete-event kernel."""

import pytest

from repro.simulation import Event, SimulationError, Simulator


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


def test_callbacks_receive_the_event_and_its_value():
    sim = Simulator()
    event = sim.event()
    seen = []
    event.add_callback(lambda e: seen.append((e is event, e.ok, e.value)))
    sim.call_in(1.0, event.succeed, "tick")
    sim.run()
    assert seen == [(True, True, "tick")]
    assert event.triggered and event.processed


def test_observed_failure_reaches_callbacks_without_raising():
    sim = Simulator()
    event = sim.event()
    seen = []
    event.add_callback(lambda e: seen.append((e.ok, str(e.value))))
    event.fail(ValueError("boom"))
    sim.run()
    assert seen == [(False, "boom")]


def test_unobserved_failure_raises_from_run():
    sim = Simulator()
    sim.call_in(1.0, Event(sim).fail, ValueError("unseen"))
    with pytest.raises(ValueError, match="unseen"):
        sim.run()


def test_fail_requires_an_exception():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")


def test_firing_is_one_queue_entry():
    sim = Simulator()
    event = sim.event()
    event.add_callback(lambda e: None)
    event.add_callback(lambda e: None)
    event.succeed()
    assert sim.events_scheduled == 1


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


def test_event_succeed_twice_is_error():
    sim = Simulator()
    event = Event(sim)
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(ValueError("late"))


def test_callback_on_processed_event_still_runs():
    sim = Simulator()
    event = sim.event()
    sim.call_in(1.0, event.succeed, "x")
    sim.run()
    assert event.processed
    seen = []
    event.add_callback(lambda e: seen.append((sim.now, e.value)))
    assert seen == []  # queued, not run on the spot
    sim.run()
    assert seen == [(1.0, "x")]


def test_callback_on_processed_event_runs_after_earlier_entries():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    sim.run()
    order = []
    sim.call_in(0.0, order.append, "queued-first")
    event.add_callback(lambda _e: order.append("late-callback"))
    sim.call_in(0.0, order.append, "queued-last")
    sim.run()
    assert order == ["queued-first", "late-callback", "queued-last"]


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
        event = sim.event()
        event.add_callback(lambda e, lab=label: order.append(lab))
        event.succeed()
        sim.call_in(0.0, order.append, label.upper())
    sim.run()
    assert order == ["a", "A", "b", "B", "c", "C"]
