"""Unit tests for the event-heap scheduler."""

import pytest

from repro.sim import SimulationError, Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending == 0
    assert sim.dispatched == 0
    assert sim.peek() is None


def test_schedule_and_run_ordering():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    n = sim.run()
    assert order == ["a", "b", "c"]
    assert n == 3
    assert sim.now == 30


def test_fifo_tie_break_at_same_time():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(5, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_schedule_at_absolute_time():
    # from time 0, a delay is the absolute time
    sim = Simulator()
    seen = []
    sim.schedule(100, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [100]


def test_schedule_now_runs_after_pending_same_time_events():
    sim = Simulator()
    order = []
    sim.schedule(0, order.append, "first")
    sim.schedule_now(order.append, "second")
    sim.run()
    assert order == ["first", "second"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_livelock_guard_keeps_the_event_it_stops_at():
    from repro.sim.engine import SimulationStuckError, Watchdog

    sim = Simulator(watchdog=Watchdog(livelock_events=2))
    seen = []
    for k in range(5):
        sim.schedule(10, seen.append, k)
    with pytest.raises(SimulationStuckError, match="livelock"):
        sim.run()
    # the first event advances time; two more are allowed at t=10
    assert seen == [0, 1, 2]
    assert sim.dispatched == 3
    sim.run()
    assert seen == [0, 1, 2, 3, 4]
    assert sim.dispatched == 5


def test_fractional_delay_rounds_up():
    sim = Simulator()
    seen = []
    sim.schedule(0.25, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1]


def test_step_single_event():
    sim = Simulator()
    seen = []
    sim.schedule(3, seen.append, "x")
    assert sim.step() is True
    assert seen == ["x"]
    assert sim.step() is False


def test_events_scheduled_during_dispatch_run():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.schedule(5, order.append, "inner")

    sim.schedule(1, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 6


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1, nested)
    sim.run()
    assert len(errors) == 1


def test_peek_returns_next_event_time():
    sim = Simulator()
    sim.schedule(42, lambda: None)
    sim.schedule(7, lambda: None)
    assert sim.peek() == 7


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        log = []
        for i in range(50):
            sim.schedule((i * 37) % 11, log.append, i)
        sim.run()
        return log

    assert build() == build()
