"""Property test: the bucketed calendar queue dispatches in exactly the
order a single ``(when, seq)`` binary heap would.

The reference below *is* the seed engine's queue — every event an
individual heap entry, ``seq`` breaking same-cycle ties in schedule
order.  Random programs mix same-cycle ties (many events at one
timestamp, zero-delay reschedules into the cycle being drained),
cancellations (the flag-closure idiom the protocol code uses — the
engine has no cancel API, a cancelled event dispatches as a no-op), and
far-future events (delays far beyond the short-period mix, exercising
the calendar's heap-degradation path).

The hot sites that insert into the calendar themselves instead of
calling ``Simulator.schedule`` (a handler's integer yield, the tail of
the NI's path reservation, the fabric's delivery) are held to the order
and the pending count ``schedule`` gives.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Processor
from repro.arch.processor import HandlerRun
from repro.net import Network
from repro.net.message import Message, MessageKind
from repro.sim import SimulationError, Simulator
from tests.net.conftest import make_cluster


class HeapReference:
    """The seed engine's (when, seq) heap queue, minus everything else."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0

    def schedule(self, delay, fn, *args):
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))
        self._seq += 1

    def run(self):
        while self._heap:
            when, _, fn, args = heapq.heappop(self._heap)
            self.now = when
            fn(*args)


# Delay mix: mostly short repeated delays (the SVM event mix the calendar
# is built for), some zero (same-cycle), a few far-future.
delays = st.one_of(
    st.integers(0, 6),
    st.sampled_from([0, 1, 1, 2, 7, 7]),
    st.integers(10_000, 10**9),
)

programs = st.lists(
    st.tuples(
        st.integers(0, 20),                      # initial schedule time
        st.lists(delays, max_size=3),            # reschedule delays on dispatch
        st.booleans(),                           # cancelled (no-op) event?
    ),
    min_size=1,
    max_size=30,
)


def _drive(sim, program):
    """Run ``program`` on ``sim``; returns the (now, event_id) dispatch log."""
    log = []
    cancelled = set(i for i, (_, _, c) in enumerate(program) if c)
    counter = [len(program)]  # fresh ids for rescheduled events

    def fire(event_id, reschedules):
        log.append((sim.now, event_id))
        if event_id in cancelled:
            return  # flag-closure cancellation: dispatched, does nothing
        for d in reschedules:
            child = counter[0]
            counter[0] += 1
            # children inherit a shortened reschedule list so programs
            # terminate; the child id keeps logs comparable across engines
            sim.schedule(d, fire, child, reschedules[1:])

    for event_id, (when, reschedules, _) in enumerate(program):
        sim.schedule(when, fire, event_id, reschedules)
    sim.run()
    return log


@given(programs)
@settings(max_examples=120, deadline=None)
def test_calendar_pop_order_equals_heap_order(program):
    calendar = Simulator()
    reference = HeapReference()
    cal_log = _drive(calendar, program)
    ref_log = _drive(reference, program)
    assert cal_log == ref_log
    assert calendar.now == reference.now


@given(programs)
@settings(max_examples=60, deadline=None)
def test_step_drain_matches_run(program):
    """Single-stepping the calendar yields the same dispatch sequence."""
    run_sim = Simulator()
    run_log = _drive(run_sim, program)

    step_sim = Simulator()
    step_log = []
    cancelled = set(i for i, (_, _, c) in enumerate(program) if c)
    counter = [len(program)]

    def fire(event_id, reschedules):
        step_log.append((step_sim.now, event_id))
        if event_id in cancelled:
            return
        for d in reschedules:
            child = counter[0]
            counter[0] += 1
            step_sim.schedule(d, fire, child, reschedules[1:])

    for event_id, (when, reschedules, _) in enumerate(program):
        step_sim.schedule(when, fire, event_id, reschedules)
    while step_sim.step():
        pass
    assert step_log == run_log


def test_far_future_tie_with_short_period_storm():
    """A deterministic worst case: two far-future events tied on one
    cycle must dispatch in schedule order after the short-period storm,
    and a zero-delay reschedule into the draining cycle runs after the
    rest of that cycle's batch (higher seq on the heap)."""
    order = []
    sim = Simulator()
    sim.schedule(10**9, order.append, "far-a")
    sim.schedule(10**9, order.append, "far-b")

    def burst(tag):
        order.append(tag)
        if tag == "burst-0":
            sim.schedule(0, order.append, "burst-late")

    for i in range(4):
        sim.schedule(5, burst, f"burst-{i}")
    sim.run()
    assert order == [
        "burst-0", "burst-1", "burst-2", "burst-3", "burst-late",
        "far-a", "far-b",
    ]


# ---------------------------------------------------------------------- #
# inline calendar inserts
# ---------------------------------------------------------------------- #
def _queued(sim):
    return sum(len(batch) for batch in sim._buckets.values()) // 2


def _assert_inserts_like_schedule(sim, when, insert, log, occupied):
    """``insert()`` must queue one event, which logs ``"site"``, at
    ``when``: behind what ``when`` already holds (``occupied``) or in a
    fresh bucket, ahead of what is scheduled there afterwards, between
    its neighbouring cycles, and counted in ``pending`` as
    ``Simulator.schedule`` counts it."""
    sim.schedule(when - 1 - sim.now, log.append, "early")
    if occupied:
        sim.schedule(when - sim.now, log.append, "before")
    sim.schedule(when + 1 - sim.now, log.append, "late")
    assert sim.pending == _queued(sim)
    insert()
    assert sim.pending == _queued(sim)
    sim.schedule(when - sim.now, log.append, "after")
    sim.run()
    assert log == ["early"] + ["before"] * occupied + ["site", "after", "late"]


@pytest.mark.parametrize("occupied", [False, True])
def test_handler_int_yield_inserts_like_schedule(occupied):
    sim, log = Simulator(), []

    def body():
        yield 40
        log.append("site")

    HandlerRun(Processor(sim, 0), body(), "h").start()
    # the grant slot at t=0 enters the handler, whose body yields 40
    _assert_inserts_like_schedule(sim, 40, sim.step, log, occupied)


def test_handler_negative_int_yield_raises():
    sim = Simulator()

    def body():
        yield -1

    HandlerRun(Processor(sim, 0), body(), "h").start()
    with pytest.raises(SimulationError, match="negative delay"):
        sim.run()


def _data(size):
    return Message(src_node=0, dst_node=1, kind=MessageKind.DATA, size_bytes=size)


@pytest.mark.parametrize("occupied", [False, True])
def test_tx_reserve_tail_inserts_like_schedule(occupied):
    twin = Simulator()
    make_cluster(twin).nodes[0].nic._tx_reserve(_data(4096))
    when = twin.peek()
    sim, log = Simulator(), []
    nic = make_cluster(sim).nodes[0].nic
    nic._tx_complete = lambda msg, packets, wire: log.append("site")
    _assert_inserts_like_schedule(
        sim, when, lambda: nic._tx_reserve(_data(4096)), log, occupied
    )


@pytest.mark.parametrize("latency, when", [(100, 100), (100.5, 101)])
@pytest.mark.parametrize("occupied", [False, True])
def test_network_deliver_inserts_like_schedule(latency, when, occupied):
    sim, log = Simulator(), []
    net = Network(sim, bytes_per_cycle=2.0, latency_cycles=latency)
    net.attach(1, lambda msg, wire: log.append("site"))
    _assert_inserts_like_schedule(
        sim, when, lambda: net.deliver(_data(10), 74), log, occupied
    )
    assert (net.messages_carried, net.bytes_carried) == (1, 74)
