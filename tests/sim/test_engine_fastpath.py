"""The optimized dispatch fast path must be observationally identical to
the general loop (same order, same clock, same counts, same rounding)."""

import math

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


def test_dispatched_counter_flushed_on_callback_error():
    sim = Simulator()
    sim.schedule(1, lambda: None)

    def boom():
        raise RuntimeError("boom")

    sim.schedule(2, boom)
    try:
        sim.run()
    except RuntimeError:
        pass
    assert sim.dispatched == 2
    assert sim.now == 2
