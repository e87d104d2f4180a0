"""Unit tests for events and the AllOf join."""

import pytest

from repro.sim import AllOf, Event, Simulator


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_event_ok_flag():
    sim = Simulator()
    good = Event(sim).succeed(1)
    bad = Event(sim).fail(ValueError("x"))
    assert good.ok
    assert not bad.ok
    assert bad.triggered


def test_allof_waits_for_every_event():
    sim = Simulator()
    evs = [Event(sim) for _ in range(3)]
    seen = []

    def waiter():
        values = yield AllOf(sim, evs)
        seen.append((sim.now, values))

    sim.spawn(waiter())
    sim.schedule(10, evs[2].succeed, "c")
    sim.schedule(20, evs[0].succeed, "a")
    sim.schedule(30, evs[1].succeed, "b")
    sim.run()
    assert seen == [(30, ["a", "b", "c"])]


def test_allof_with_already_triggered_events():
    sim = Simulator()
    evs = [Event(sim).succeed(i) for i in range(3)]
    seen = []

    def waiter():
        values = yield AllOf(sim, evs)
        seen.append(values)

    sim.spawn(waiter())
    sim.run()
    assert seen == [[0, 1, 2]]


def test_allof_empty_list_resumes_immediately():
    sim = Simulator()
    seen = []

    def waiter():
        values = yield AllOf(sim, [])
        seen.append((sim.now, values))

    sim.spawn(waiter())
    sim.run()
    assert seen == [(0, [])]


def test_allof_propagates_failure():
    sim = Simulator()
    evs = [Event(sim), Event(sim)]
    caught = []

    def waiter():
        try:
            yield AllOf(sim, evs)
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    sim.schedule(5, evs[0].fail, ValueError("dead"))
    sim.run()
    assert caught == ["dead"]
