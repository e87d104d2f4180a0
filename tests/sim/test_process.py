"""Unit tests for generator-coroutine processes."""

import pytest

from repro.sim import Event, ProcessCrash, Simulator


def test_simple_timeout_sequence():
    sim = Simulator()
    log = []

    def worker():
        log.append(("start", sim.now))
        yield sim.timeout(10)
        log.append(("mid", sim.now))
        yield sim.timeout(5)
        log.append(("end", sim.now))

    sim.spawn(worker())
    sim.run()
    assert log == [("start", 0), ("mid", 10), ("end", 15)]


def test_process_return_value_via_done_event():
    sim = Simulator()

    def worker():
        yield sim.timeout(1)
        return 42

    proc = sim.spawn(worker())
    sim.run()
    assert proc.finished
    assert proc.done.value == 42


def test_join_another_process():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(30)
        return "payload"

    def parent():
        c = sim.spawn(child())
        got = yield c
        results.append((sim.now, got))

    sim.spawn(parent())
    sim.run()
    assert results == [(30, "payload")]


def test_join_already_finished_process():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(1)
        return "early"

    def parent(c):
        yield sim.timeout(50)
        got = yield c
        results.append((sim.now, got))

    c = sim.spawn(child())
    sim.spawn(parent(c))
    sim.run()
    assert results == [(50, "early")]


def test_wait_on_event_value():
    sim = Simulator()
    ev = Event(sim)
    seen = []

    def waiter():
        value = yield ev
        seen.append((sim.now, value))

    def trigger():
        yield sim.timeout(25)
        ev.succeed("hello")

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert seen == [(25, "hello")]


def test_multiple_waiters_all_woken():
    sim = Simulator()
    ev = Event(sim)
    seen = []

    def waiter(tag):
        value = yield ev
        seen.append((tag, value))

    for tag in range(4):
        sim.spawn(waiter(tag))
    sim.schedule(10, ev.succeed, 99)
    sim.run()
    assert sorted(seen) == [(0, 99), (1, 99), (2, 99), (3, 99)]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = Event(sim)
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    sim.schedule(5, ev.fail, ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_exception_becomes_process_crash():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("oops")

    sim.spawn(bad(), name="bad")
    with pytest.raises(ProcessCrash, match="bad"):
        sim.run()


def test_yield_non_waitable_crashes():
    sim = Simulator()

    def bad():
        yield "not a waitable"

    sim.spawn(bad())
    with pytest.raises(ProcessCrash):
        sim.run()


def test_yield_int_is_timeout_shorthand():
    # a bare non-negative int yield suspends for that many cycles,
    # exactly like yielding sim.timeout(n)
    sim = Simulator()
    log = []

    def proc():
        yield 7
        log.append(sim.now)
        yield 0
        log.append(sim.now)
        yield sim.timeout(3)
        log.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert log == [7, 7, 10]


def test_spawn_inside_process():
    sim = Simulator()
    log = []

    def inner():
        yield sim.timeout(3)
        log.append("inner")

    def outer():
        yield sim.timeout(1)
        sim.spawn(inner())
        log.append("outer")
        yield sim.timeout(10)

    sim.spawn(outer())
    sim.run()
    assert log == ["outer", "inner"]


def test_zero_delay_yield_keeps_time():
    sim = Simulator()
    times = []

    def worker():
        for _ in range(5):
            times.append(sim.now)
            yield sim.timeout(0)

    sim.spawn(worker())
    sim.run()
    assert times == [0, 0, 0, 0, 0]


def test_many_processes_deterministic_interleave():
    def run_once():
        sim = Simulator()
        log = []

        def worker(tag, period):
            for _ in range(10):
                yield sim.timeout(period)
                log.append((sim.now, tag))

        for tag, period in enumerate([3, 5, 7, 11]):
            sim.spawn(worker(tag, period))
        sim.run()
        return log

    assert run_once() == run_once()
