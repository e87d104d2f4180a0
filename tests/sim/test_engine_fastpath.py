"""The optimized dispatch fast path must be observationally identical to
the general loop (same order, same clock, same counts, same rounding)."""

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


def test_fast_path_matches_general_loop():
    # fast path: no until/max_events
    fast_log = []
    fast = Simulator()
    _storm(fast, fast_log)
    n_fast = fast.run()

    # general path: an event budget it never reaches forces the
    # per-event-branch loop
    slow_log = []
    slow = Simulator()
    _storm(slow, slow_log)
    n_slow = slow.run(max_events=1_000_000)

    assert fast_log == slow_log
    assert n_fast == n_slow
    assert fast.now == slow.now
    assert fast.dispatched == slow.dispatched


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


# both dispatch loops: the fused fast path, and the general loop an event
# budget it never reaches forces
RUN_KWARGS = [{}, {"max_events": 1_000_000}]


def test_dispatched_counter_flushed_on_callback_error():
    _resume_after_callback_error({})


def test_general_loop_resumes_after_callback_error():
    _resume_after_callback_error(RUN_KWARGS[1])


def _resume_after_callback_error(run_kwargs):
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
        sim.run(**run_kwargs)
    assert sim.dispatched == 2
    assert sim.now == 2
    assert log == ["a", "boom"]
    assert sim.pending == 4  # b, append-0, append-1, c
    assert sim.peek() == 2

    assert sim.run(**run_kwargs) == 4
    assert log == ["a", "boom", "b", "append-0", "append-1", "c"]
    assert sim.dispatched == 6
    assert sim.pending == 0
    assert sim.peek() is None


@pytest.mark.parametrize("run_kwargs", RUN_KWARGS, ids=["fast", "general"])
def test_raise_on_last_event_of_batch_leaves_no_bucket(run_kwargs):
    sim = Simulator()
    log = []
    sim.schedule(1, log.append, "a")

    def boom():
        raise RuntimeError("boom")

    sim.schedule(1, boom)
    sim.schedule(4, log.append, "b")
    with pytest.raises(RuntimeError):
        sim.run(**run_kwargs)
    assert (sim.dispatched, sim.pending, sim.peek()) == (2, 1, 4)
    sim.run(**run_kwargs)
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
