"""The fused live-bucket drain in ``Simulator.run`` must be observationally
identical to a per-event ``step()`` drain (same order, same clock, same
counts, same rounding)."""

import math

import pytest

from repro.sim import Simulator


def _storm(sim, log):
    """A mix of int and float delays, with re-scheduling callbacks."""

    def tick(tag, rounds):
        log.append((sim.now, tag))
        if rounds:
            sim.schedule(3, tick, tag, rounds - 1)
            sim.schedule(2.5, tick, f"{tag}+f", 0)

    for i in range(5):
        sim.schedule(i, tick, i, 3)
    sim.schedule(1.2, tick, "float", 2)


def _step_drain(sim):
    """The per-event reference: dispatch one event at a time."""
    n = 0
    while sim.step():
        n += 1
    return n


def test_run_matches_step_drain():
    run_log = []
    run = Simulator()
    _storm(run, run_log)
    n_run = run.run()

    step_log = []
    step = Simulator()
    _storm(step, step_log)
    n_step = _step_drain(step)

    assert run_log == step_log
    assert n_run == n_step
    assert run.now == step.now
    assert run.dispatched == step.dispatched


def test_float_delays_still_round_up():
    sim = Simulator()
    seen = []
    sim.schedule(1.0001, lambda: seen.append(sim.now))
    sim.schedule(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [math.ceil(1.0001), math.ceil(7.5)] == [2, 8]


def test_int_delay_fast_path_has_no_float_roundtrip():
    sim = Simulator()
    big = 1 << 62  # above float precision: ceil(float(big)) would drift
    seen = []
    sim.schedule(big, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [big]


def test_dispatched_counter_flushed_on_callback_error():
    _resume_after_callback_error(Simulator.run)


def test_step_drain_resumes_after_callback_error():
    _resume_after_callback_error(_step_drain)


def _resume_after_callback_error(drain):
    """A callback that schedules into its own cycle and then raises: the
    failing event is consumed and counted once, and the next run
    dispatches the rest of its batch, appends included, once each and
    in schedule order."""
    sim = Simulator()
    log = []
    sim.schedule(1, log.append, "a")

    def boom():
        log.append("boom")
        sim.schedule(0, log.append, "append-0")
        sim.schedule_now(log.append, "append-1")
        raise RuntimeError("boom")

    sim.schedule(2, boom)
    sim.schedule(2, log.append, "b")
    sim.schedule(3, log.append, "c")
    assert sim.pending == 4
    with pytest.raises(RuntimeError, match="boom"):
        drain(sim)
    assert sim.dispatched == 2
    assert sim.now == 2
    assert log == ["a", "boom"]
    assert sim.pending == 4  # b, append-0, append-1, c
    assert sim.peek() == 2

    assert drain(sim) == 4
    assert log == ["a", "boom", "b", "append-0", "append-1", "c"]
    assert sim.dispatched == 6
    assert sim.pending == 0
    assert sim.peek() is None


@pytest.mark.parametrize("drain", [Simulator.run, _step_drain], ids=["fast", "step"])
def test_raise_on_last_event_of_batch_leaves_no_bucket(drain):
    sim = Simulator()
    log = []
    sim.schedule(1, log.append, "a")

    def boom():
        raise RuntimeError("boom")

    sim.schedule(1, boom)
    sim.schedule(4, log.append, "b")
    with pytest.raises(RuntimeError):
        drain(sim)
    assert (sim.dispatched, sim.pending, sim.peek()) == (2, 1, 4)
    drain(sim)
    assert log == ["a", "b"]
    assert (sim.dispatched, sim.pending, sim.peek()) == (3, 0, None)


def test_pending_counts_queued_events_through_steps():
    """Same-cycle inserts join the batch being stepped through, behind
    what it already holds; ``pending`` tracks the queue at every step."""
    sim = Simulator()
    log = []

    def fan(tag):
        log.append(tag)
        sim.schedule(0, log.append, tag + "'")

    sim.schedule(0, fan, "a")
    sim.schedule(0, fan, "b")
    sim.schedule(5, log.append, "c")
    pending = [sim.pending]
    while sim.step():
        pending.append(sim.pending)
    assert log == ["a", "b", "a'", "b'", "c"]
    assert pending == [3, 3, 3, 2, 1, 0]
    assert sim.dispatched == 5
