"""Tests for the discrete-event kernel."""

import pytest

from repro.simulation import AllOf, Event, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_nan_times_are_rejected():
    # NaN compares False against everything, so a `delay < 0` check let it
    # into the heap, where it stamped events with ts NaN.
    nan = float("nan")
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.timeout(nan)
    with pytest.raises(SimulationError):
        sim.call_at(nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=nan)
    sim.run()
    assert sim.now == 0.0  # nothing was queued


def test_process_receives_timeout_value():
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.timeout(1.0, value="tick")
        seen.append(value)

    sim.process(proc())
    sim.run()
    assert seen == ["tick"]


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        return 17

    handle = sim.process(proc())
    sim.run()
    assert handle.value == 17
    assert handle.triggered


def test_processes_wait_on_each_other():
    sim = Simulator()
    order = []

    def inner():
        yield sim.timeout(3.0)
        order.append("inner")
        return "payload"

    def outer():
        result = yield sim.process(inner())
        order.append("outer")
        assert result == "payload"

    sim.process(outer())
    sim.run()
    assert order == ["inner", "outer"]
    assert sim.now == 3.0


def test_exception_propagates_into_waiting_process():
    sim = Simulator()
    caught = []

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def waiter():
        try:
            yield sim.process(failing())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    sim.run()
    assert caught == ["boom"]


def test_unobserved_process_failure_raises_from_run():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("unseen")

    sim.process(failing())
    with pytest.raises(ValueError, match="unseen"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_all_of_collects_values_in_order():
    sim = Simulator()
    results = []

    def proc():
        values = yield sim.all_of([sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")])
        results.append(values)

    sim.process(proc())
    sim.run()
    assert results == [["slow", "fast"]]
    assert sim.now == 3.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    event = AllOf(sim, [])
    assert event.triggered
    assert event.value == []


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    marker = sim.timeout(10.0)
    marker.add_callback(lambda e: fired.append(sim.now))
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert fired == []
    sim.run()
    assert fired == [10.0]


def test_run_until_sets_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_event_succeed_twice_is_error():
    sim = Simulator()
    event = Event(sim)
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_callback_on_processed_event_still_runs():
    sim = Simulator()
    event = sim.timeout(1.0, value="x")
    sim.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["x"]


def test_call_at_runs_callback_at_absolute_time():
    sim = Simulator()
    stamps = []
    sim.call_at(4.0, lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == [4.0]


def test_call_at_in_the_past_is_error():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_deterministic_tie_breaking_by_insertion_order():
    sim = Simulator()
    order = []
    for label in ("a", "b", "c"):
        sim.timeout(1.0).add_callback(lambda e, lab=label: order.append(lab))
    sim.run()
    assert order == ["a", "b", "c"]
